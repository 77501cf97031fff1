package campaign

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/api"
	"repro/internal/cache"
)

// WorkerOptions configures a Worker.
type WorkerOptions struct {
	// Name identifies the worker to coordinators (journal, metrics,
	// logs). Required.
	Name string
	// Capacity bounds the jobs the worker simulates at once, across
	// every coordinator; default 1.
	Capacity int
	// Cache, when non-nil, is the worker's local result cache: pushed
	// jobs it already holds complete without re-simulating, and fresh
	// results are stored. Optional — the coordinator caches too.
	Cache Cache
	// OnJobTime, when non-nil, is called with each simulated job's wall
	// time (local cache hits excluded). It runs on job goroutines and
	// must be concurrency-safe.
	OnJobTime func(time.Duration)
	// TraceDir / TraceMatch mirror Options.TraceDir / TraceMatch:
	// flight-recorder traces for the jobs this worker simulates. Never
	// part of the job identity or the result payload.
	TraceDir   string
	TraceMatch string
	// OnTrace mirrors Options.OnTrace: per traced job, the flight
	// recorder's event and dropped-event counts. Concurrency-safe.
	OnTrace func(total, dropped uint64)
}

// Worker is the fleet-side runtime behind mmmd -worker. Coordinators
// push it jobs, one POST /v1/run each: the job waits for one of
// Capacity slots, simulates, and is answered with canonical metrics
// plus the job's cache key, with a keepalive newline every third of the
// coordinator's lease TTL until then. A worker holds no campaign state
// and sends no request: killing one costs at most its in-flight jobs,
// which their coordinators reassign.
type Worker struct {
	opts  WorkerOptions
	check string
	// slots holds one chip recycler per capacity slot. A job takes one
	// to simulate and puts it back, so chips built for consecutive jobs
	// reuse the cache hierarchy's line arrays.
	slots chan *cache.Recycler

	mu     sync.Mutex // orders Stop against jobs starting
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup // jobs in flight

	jobsDone   atomic.Uint64
	jobsFailed atomic.Uint64
	leasesLost atomic.Uint64
}

// NewWorker returns a worker ready to serve jobs until Stop.
func NewWorker(opts WorkerOptions) *Worker {
	if opts.Name == "" {
		opts.Name = "worker"
	}
	if opts.Capacity < 1 {
		opts.Capacity = 1
	}
	ctx, cancel := context.WithCancel(context.Background())
	w := &Worker{
		opts:   opts,
		check:  protocolCheck(),
		slots:  make(chan *cache.Recycler, opts.Capacity),
		ctx:    ctx,
		cancel: cancel,
	}
	for range opts.Capacity {
		w.slots <- cache.NewRecycler()
	}
	return w
}

// Handler routes the worker's coordinator-facing endpoints.
func (w *Worker) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(rw http.ResponseWriter, _ *http.Request) {
		writeJSONTo(rw, http.StatusOK, map[string]string{"status": "ok", "worker": w.opts.Name})
	})
	mux.HandleFunc("GET "+api.PathPrefix+"/worker", func(rw http.ResponseWriter, _ *http.Request) {
		writeJSONTo(rw, http.StatusOK, api.WorkerInfo{Worker: w.opts.Name, Capacity: w.opts.Capacity, Check: w.check})
	})
	mux.HandleFunc("POST "+api.PathPrefix+"/run", w.handleRun)
	return mux
}

// WorkerStats is a point-in-time snapshot of a worker's counters, for
// metric exposition.
type WorkerStats struct {
	Name       string
	Capacity   int
	JobsDone   uint64
	JobsFailed uint64
	LeasesLost uint64
}

// Stats snapshots the worker's counters.
func (w *Worker) Stats() WorkerStats {
	return WorkerStats{
		Name:       w.opts.Name,
		Capacity:   w.opts.Capacity,
		JobsDone:   w.jobsDone.Load(),
		JobsFailed: w.jobsFailed.Load(),
		LeasesLost: w.leasesLost.Load(),
	}
}

// Stop refuses new jobs and abandons every job in flight: each
// response ends without a result line, so its coordinator reassigns
// the job (per-job determinism makes the reassigned run identical).
// Stop returns once the abandoned simulations have finished. The
// cancel happens under mu, so a job either started before Stop (and
// the wait covers it) or sees the worker stopped and is refused.
func (w *Worker) Stop() {
	w.mu.Lock()
	w.cancel()
	w.mu.Unlock()
	w.wg.Wait()
}

// handleRun serves one pushed job. It answers 200 once the request is
// checked — decoded within its bound, from a compatible build, to a
// running worker — and then writes a keepalive newline every third of
// the request's TTL until the result line. The response ends without a
// result when the coordinator goes away or the worker stops.
func (w *Worker) handleRun(rw http.ResponseWriter, req *http.Request) {
	var rr api.RunRequest
	if !decodeBody(rw, req, maxControlBody, "run request", &rr) {
		return
	}
	if rr.Check != w.check {
		httpErrorJSON(rw, http.StatusConflict, "worker %s refuses the job: %s",
			w.opts.Name, explainCheckMismatch(w.check, rr.Check))
		return
	}
	ctx, cancel := context.WithCancel(req.Context())
	defer cancel()
	defer context.AfterFunc(w.ctx, cancel)()
	w.mu.Lock()
	if w.ctx.Err() != nil {
		w.mu.Unlock()
		httpErrorJSON(rw, http.StatusServiceUnavailable, "worker %s is stopped", w.opts.Name)
		return
	}
	w.wg.Add(1)
	w.mu.Unlock()
	result := make(chan api.RunResult, 1)
	go func() {
		defer w.wg.Done()
		result <- w.run(ctx, rr)
	}()

	rw.Header().Set("Content-Type", "application/x-ndjson")
	rw.WriteHeader(http.StatusOK)
	flush := http.NewResponseController(rw).Flush
	_ = flush()
	// A degenerate wire-supplied TTL must not panic time.NewTicker.
	t := time.NewTicker(max(time.Duration(rr.TTLMS)*time.Millisecond/3, time.Millisecond))
	defer t.Stop()
	for {
		select {
		case res := <-result:
			if ctx.Err() != nil {
				// Abandoned while its result was on the way, or before
				// a slot freed up: the job is lost, not failed.
				w.leasesLost.Add(1)
				return
			}
			if res.Error != "" {
				w.jobsFailed.Add(1)
			} else {
				w.jobsDone.Add(1)
			}
			_ = json.NewEncoder(rw).Encode(res)
			return
		case <-t.C:
			if _, err := rw.Write([]byte{'\n'}); err != nil || flush() != nil {
				w.leasesLost.Add(1)
				return
			}
		case <-ctx.Done():
			w.leasesLost.Add(1)
			return
		}
	}
}

// run checks the coordinator's derivations, then runs the job in a
// free slot. A job whose response is abandoned before a slot frees up
// never runs.
func (w *Worker) run(ctx context.Context, rr api.RunRequest) api.RunResult {
	res := api.RunResult{Fingerprint: rr.Fingerprint}
	// A seed or fingerprint skew means the builds disagree about what
	// this job *is*, and the result must not enter any cache.
	if got := rr.Job.SimSeed(); got != rr.SimSeed {
		res.Error = fmt.Sprintf("derived-seed mismatch: worker %d, coordinator %d", got, rr.SimSeed)
		return res
	}
	if got := rr.Job.Fingerprint(rr.Scale); got != rr.Fingerprint {
		res.Error = fmt.Sprintf("fingerprint mismatch: worker %s, coordinator %s", got, rr.Fingerprint)
		return res
	}
	var scratch *cache.Recycler
	select {
	case scratch = <-w.slots:
	case <-ctx.Done():
		return res
	}
	defer func() { w.slots <- scratch }()
	if w.opts.Cache != nil {
		if m, ok := w.opts.Cache.Get(rr.Fingerprint); ok {
			res.Metrics = &m
			return res
		}
	}
	h := jobHooks{w.opts.TraceDir, w.opts.TraceMatch, w.opts.OnJobTime, w.opts.OnTrace}
	m, err := h.execute(rr.Scale, rr.Job, scratch)
	if err == nil && w.opts.Cache != nil {
		err = w.opts.Cache.Put(rr.Fingerprint, m)
	}
	if err != nil {
		res.Error = err.Error()
		return res
	}
	res.Metrics = &m
	return res
}
