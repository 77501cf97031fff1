package campaign

import (
	"sync"
	"time"

	"repro/internal/obs"
)

// FleetObs instruments the distributed campaign protocol — lease
// grants, lost leases and reassignments, job completions and
// latencies, worker keepalive ages — into an obs.Registry. A nil *FleetObs
// records nothing, so the board and dispatcher call it unconditionally.
type FleetObs struct {
	leaseGrants   *obs.Counter
	leaseExpiries *obs.Counter
	leaseReassign *obs.Counter
	jobsCompleted *obs.Counter
	jobsFailed    *obs.Counter
	jobSeconds    *obs.Histogram

	mu       sync.Mutex
	lastSeen map[string]time.Time
}

// NewFleetObs registers the fleet metric family on r and returns the
// instrument set.
func NewFleetObs(r *obs.Registry) *FleetObs {
	f := &FleetObs{
		leaseGrants: r.Counter("mmm_fleet_lease_grants_total",
			"Job leases granted to workers."),
		leaseExpiries: r.Counter("mmm_fleet_lease_expiries_total",
			"Leases lost: the worker's response went silent or ended without a result."),
		leaseReassign: r.Counter("mmm_fleet_lease_reassignments_total",
			"Lease grants that retried a previously attempted job."),
		jobsCompleted: r.Counter("mmm_fleet_jobs_completed_total",
			"Jobs completed by the fleet."),
		jobsFailed: r.Counter("mmm_fleet_jobs_failed_total",
			"Job completions that reported an error."),
		jobSeconds: r.Histogram("mmm_fleet_job_seconds",
			"Wall time from lease grant to completion."),
		lastSeen: make(map[string]time.Time),
	}
	r.RegisterCollector(func(emit func(obs.Sample)) {
		f.mu.Lock()
		defer f.mu.Unlock()
		for w, t := range f.lastSeen {
			emit(obs.Sample{
				Name:   "mmm_fleet_worker_age_seconds",
				Help:   "Seconds since each worker was last heard from.",
				Type:   "gauge",
				Labels: []string{"worker", w},
				Value:  time.Since(t).Seconds(),
			})
		}
	})
	return f
}

// seen refreshes a worker's liveness timestamp.
func (f *FleetObs) seen(worker string) {
	f.mu.Lock()
	f.lastSeen[worker] = time.Now()
	f.mu.Unlock()
}

// LeaseGranted records a lease handed to a worker; reassigned marks a
// job that had been attempted before (its previous lease expired or
// failed).
func (f *FleetObs) LeaseGranted(worker string, reassigned bool) {
	if f == nil {
		return
	}
	f.leaseGrants.Inc()
	if reassigned {
		f.leaseReassign.Inc()
	}
	f.seen(worker)
}

// Heartbeat records a keepalive from a worker running a job.
func (f *FleetObs) Heartbeat(worker string) {
	if f == nil {
		return
	}
	f.seen(worker)
}

// JobCompleted records one completion and its lease-to-completion wall
// time.
func (f *FleetObs) JobCompleted(worker string, d time.Duration, failed bool) {
	if f == nil {
		return
	}
	f.jobsCompleted.Inc()
	if failed {
		f.jobsFailed.Inc()
	}
	f.jobSeconds.Observe(d.Seconds())
	f.seen(worker)
}

// LeaseLost records a lease whose worker went silent or ended its
// response without a result.
func (f *FleetObs) LeaseLost(worker string) {
	if f == nil {
		return
	}
	f.leaseExpiries.Inc()
}
