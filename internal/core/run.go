package core

import (
	"repro/internal/sim"
	"repro/internal/stats"
)

// Metrics summarizes one measured simulation window.
type Metrics struct {
	Kind     Kind
	Workload string
	Cycles   uint64

	// GuestUser / GuestOS are committed instructions per reporting
	// bucket; the MMM-TP performance guest's two co-scheduled halves
	// are merged into one "perf" bucket. GuestVCPUs counts the VCPUs
	// contributing to each bucket.
	GuestUser  map[string]uint64
	GuestOS    map[string]uint64
	GuestVCPUs map[string]int

	Core  stats.CoreCounters
	Cache stats.CacheCounters

	// Mode-transition costs (Table 1).
	EnterN, LeaveN     uint64
	EnterAvg, LeaveAvg float64
	CtxN               uint64
	CtxAvg             float64

	// Reunion activity.
	Checks, Mismatches uint64

	// Protection activity.
	PABChecks, PABMisses, PABExceptions uint64
	WouldCorrupt                        uint64
	VerifyFailures                      uint64
	MachineChecks                       uint64

	// Fault campaign.
	FaultsInjected uint64

	// Relia, when non-nil, is the Monte Carlo reliability batch this
	// metrics record summarizes (reliability jobs carry outcome
	// tallies instead of performance buckets).
	Relia *ReliaBatch `json:"Relia,omitempty"`

	// Single-OS switching cadence (Table 2).
	UserCycPerSwitch float64
	OSCycPerSwitch   float64
}

// UserIPC returns the average per-VCPU user IPC of a bucket: user
// commits divided by (cycles x VCPUs), the paper's per-thread metric.
func (m *Metrics) UserIPC(bucket string) float64 {
	n := m.GuestVCPUs[bucket]
	if n == 0 || m.Cycles == 0 {
		return 0
	}
	return float64(m.GuestUser[bucket]) / (float64(m.Cycles) * float64(n))
}

// Throughput returns a bucket's total committed user instructions.
func (m *Metrics) Throughput(bucket string) float64 {
	return float64(m.GuestUser[bucket])
}

// TotalThroughput sums committed user instructions over all buckets.
// The sum is accumulated in uint64 so the result does not depend on
// map iteration order (float addition is not associative).
func (m *Metrics) TotalThroughput() float64 {
	var t uint64
	for _, v := range m.GuestUser {
		t += v
	}
	return float64(t)
}

// bucketName merges the MMM-TP co-scheduled halves.
func bucketName(name string) string {
	if name == "perf2" {
		return "perf"
	}
	return name
}

// Measure runs the chip for warmup cycles, resets all counters, runs
// for measure cycles, and collects metrics.
func (c *Chip) Measure(warmup, measure sim.Cycle) Metrics {
	c.Run(warmup)
	c.ResetMeasurement()
	start := c.Now
	c.Run(measure)
	return c.Collect(c.Now - start)
}

// Collect gathers metrics for the last measurement window of the given
// length.
func (c *Chip) Collect(window sim.Cycle) Metrics {
	// Sleeping cores owe their own and their pair's counters the slept
	// cycles; settle before summing.
	for _, core := range c.Cores {
		core.SettleTo(c.Now)
	}
	for i := range c.Cores {
		c.flushAttribution(i)
	}
	m := Metrics{
		Kind:       c.Kind,
		Cycles:     window,
		GuestUser:  make(map[string]uint64),
		GuestOS:    make(map[string]uint64),
		GuestVCPUs: make(map[string]int),
	}
	if len(c.Guests) > 0 {
		m.Workload = c.Guests[0].WL.Name
	}
	for _, g := range c.Guests {
		b := bucketName(g.Name)
		m.GuestUser[b] += c.guestUser[g.ID]
		m.GuestOS[b] += c.guestOS[g.ID]
		m.GuestVCPUs[b] += len(g.VCPUs)
	}
	for _, core := range c.Cores {
		m.Core.Add(&core.C)
	}
	m.Cache = c.Hier.Totals()
	for _, p := range c.Pairs {
		m.Checks += p.Checks
		m.Mismatches += p.Mismatches
	}
	for _, p := range c.PABs {
		m.PABChecks += p.C.PABChecks
		m.PABMisses += p.C.PABMisses
		m.PABExceptions += p.C.PABExceptions
		m.WouldCorrupt += p.WouldCorrupt
	}
	m.VerifyFailures = c.Eng.VerifyFailures
	m.MachineChecks = c.machineChecks
	m.EnterN, m.LeaveN, m.CtxN = c.enterN, c.leaveN, c.ctxN
	if c.enterN > 0 {
		m.EnterAvg = float64(c.enterCycles) / float64(c.enterN)
	}
	if c.leaveN > 0 {
		m.LeaveAvg = float64(c.leaveCyc) / float64(c.leaveN)
	}
	if c.ctxN > 0 {
		m.CtxAvg = float64(c.ctxCycles) / float64(c.ctxN)
	}
	if c.Injector != nil {
		// Rebased at ResetMeasurement: report only faults injected
		// inside the measurement window, not warmup-window injections.
		m.FaultsInjected = c.Injector.Total() - c.faultBase
	}
	// Switching cadence: average user (OS) cycles accumulated per trap
	// entry (return) across cores that ran software.
	if m.Core.TrapEntries > 0 {
		m.UserCycPerSwitch = float64(m.Core.UserCycles) / float64(m.Core.TrapEntries)
	}
	if m.Core.TrapReturns > 0 {
		m.OSCycPerSwitch = float64(m.Core.OSCycles) / float64(m.Core.TrapReturns)
	}
	return m
}

// RunSystem builds the system described by opts and measures it. When
// opts carries a recycler, the chip's big arrays are handed back to it
// before returning.
func RunSystem(opts Options, warmup, measure sim.Cycle) (Metrics, error) {
	chip, err := NewSystem(opts)
	if err != nil {
		return Metrics{}, err
	}
	m := chip.Measure(warmup, measure)
	chip.Release()
	return m, nil
}
