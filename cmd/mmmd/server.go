package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/campaign"
	"repro/internal/mode"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/stats"
)

// run is one submitted campaign and its execution state.
type run struct {
	mu       sync.Mutex
	seq      int // submission order, for retention eviction
	id       string
	name     string
	scale    campaign.Scale
	workers  int                 // fleet size; 0 = local pool
	prec     *campaign.Precision // normalized adaptive block; nil = fixed batches
	status   string              // queued, running, done, failed, canceled
	total    int
	done     int
	hits     int
	errMsg   string
	wall     time.Duration
	rows     []stats.Row
	report   *campaign.Report // wall-clock attribution, set at terminal state
	started  time.Time
	finished time.Time
	cancel   context.CancelFunc

	// jnl is the run's event journal, created at submission (before the
	// execute goroutine starts) and never reassigned, so reads need no
	// lock; the journal itself is internally synchronized.
	jnl *campaign.Journal
}

func (r *run) snapshot() api.RunStatus {
	r.mu.Lock()
	defer r.mu.Unlock()
	return api.RunStatus{
		ID:          r.id,
		Name:        r.name,
		Scale:       r.scale,
		Status:      r.status,
		Jobs:        r.total,
		Done:        r.done,
		CacheHit:    r.hits,
		Workers:     r.workers,
		Error:       r.errMsg,
		WallMS:      r.wall.Milliseconds(),
		Precision:   r.prec,
		Attribution: r.report,
	}
}

// defaultRetainRuns bounds how many completed (done, failed or
// canceled) runs the server remembers. A long-lived service would
// otherwise grow its runs map — and every completed run's result rows —
// without bound.
const defaultRetainRuns = 128

// server executes submitted campaigns concurrently (bounded by sem) on
// a shared result cache, so overlapping campaigns reuse each other's
// simulations.
type server struct {
	cache      campaign.Cache
	counting   *campaign.CountingCache // same cache, for /status counters; nil when caching is off
	parallel   int
	fleet      []string // default worker URLs; empty = local execution
	retain     int      // completed runs kept; older ones are evicted
	debug      bool     // mount /debug/pprof
	journalDir string   // run journals (JSONL); "" keeps journals in memory only
	traceDir   string   // flight-recorder traces for local jobs; "" disables
	traceMatch string   // substring filter on traced jobs' keys
	sem        chan struct{}
	baseCtx    context.Context
	wg         sync.WaitGroup
	started    time.Time

	// Telemetry (initMetrics): the /metrics registry, the fleet lease
	// instruments handed to dispatchers, and the local job-latency
	// histogram fed by engine OnJobTime callbacks.
	reg        *obs.Registry
	fleetObs   *campaign.FleetObs
	jobSeconds *obs.Histogram

	// Flight-recorder volume counters, fed by engine OnTrace callbacks.
	traceEvents  *obs.Counter
	traceDropped *obs.Counter

	mu      sync.Mutex
	seq     int
	runs    map[string]*run
	evicted uint64 // completed runs dropped by the retention cap
}

// newServer builds a server. maxCampaigns bounds how many campaigns
// execute at once; parallel bounds each campaign's worker pool.
func newServer(ctx context.Context, cache campaign.Cache, parallel, maxCampaigns int) *server {
	if maxCampaigns < 1 {
		maxCampaigns = 1
	}
	s := &server{
		parallel: parallel,
		retain:   defaultRetainRuns,
		sem:      make(chan struct{}, maxCampaigns),
		baseCtx:  ctx,
		started:  time.Now(),
		runs:     make(map[string]*run),
	}
	if cache != nil {
		// Wrap the shared cache so /status can report hit/miss/store
		// counters across every campaign served by this process.
		s.counting = campaign.NewCountingCache(cache)
		s.cache = s.counting
	}
	s.initMetrics()
	return s
}

// apiRoutes is the coordinator's API, each path served under
// api.PathPrefix. The access log's label vocabulary is built from it.
var apiRoutes = []struct {
	method, path string
	h            func(*server, http.ResponseWriter, *http.Request)
}{
	{"GET", "/catalog", (*server).handleCatalog},
	{"GET", "/status", (*server).handleServiceStatus},
	{"POST", "/campaigns", (*server).handleSubmit},
	{"GET", "/campaigns", (*server).handleList},
	{"GET", "/campaigns/{id}", (*server).handleStatus},
	{"GET", "/campaigns/{id}/results", (*server).handleResults},
	{"GET", "/campaigns/{id}/events", (*server).handleEvents},
	{"POST", "/campaigns/{id}/cancel", (*server).handleCancel},
}

// handler routes the service's endpoints. The API surface is
// versioned: every campaign route is served under /v1/ only.
// /healthz and /metrics are infrastructure endpoints (probes,
// scrapers), not API — they stay unversioned.
func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("GET /metrics", metricsHandler(s.reg))
	for _, rt := range apiRoutes {
		mux.HandleFunc(rt.method+" "+api.PathPrefix+rt.path, func(w http.ResponseWriter, r *http.Request) {
			rt.h(s, w, r)
		})
	}
	if s.debug {
		mountPprof(mux)
	}
	return accessLog(mux, s.reg)
}

// handleCatalog reports the registered campaign names, the mode-policy
// vocabulary, the precision axis adaptive submissions may target, and
// the full per-campaign axes — so operators can discover what a sweep
// runs (and which knobs a submission accepts) without reading source.
func (s *server) handleCatalog(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, api.CatalogResponse{
		Names:     campaign.Names(),
		Policies:  mode.Names(),
		Precision: api.PrecisionAxis(),
		Campaigns: campaign.Catalog(),
	})
}

// maxSubmitBytes caps a submission's body. A real submission is well
// under a kilobyte; the cap stops an untrusted client from making the
// service decode an arbitrarily large one.
const maxSubmitBytes = 1 << 20

func (s *server) handleSubmit(w http.ResponseWriter, req *http.Request) {
	var body api.SubmitRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, req.Body, maxSubmitBytes)).Decode(&body); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			httpError(w, http.StatusRequestEntityTooLarge, "request body over %d bytes", maxSubmitBytes)
			return
		}
		httpError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	sc, err := scaleOf(body)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	seeds := body.Seeds
	if len(seeds) == 0 && body.Scale == "quick" {
		// The quick preset means the same jobs here as mmmbench -quick,
		// so the two front ends share cache entries.
		seeds = campaign.QuickSeeds()
	}
	// Validate the policy axis early so a typo answers with the valid
	// names instead of a queued campaign that fails at its first job.
	for _, pol := range body.Policies {
		if pol == "" {
			continue
		}
		if _, err := mode.Parse(pol); err != nil {
			httpError(w, http.StatusBadRequest, "%v", err)
			return
		}
	}
	spec, err := campaign.Named(body.Name, body.Workloads, seeds)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if len(body.Policies) > 0 {
		spec.Policies = body.Policies
	}
	// A submitted precision block overrides the campaign's default (if
	// any): the submission decides whether the run is adaptive.
	if body.Precision != nil {
		spec.Precision = body.Precision
	}
	// Validate the spec — the adaptive block included — at submission,
	// not at the first wave, with the check every executor applies: an
	// out-of-bounds target answers 400 naming the valid range, and a
	// campaign without fault injection can never satisfy a stopping
	// rule over fault outcomes.
	cells, prec, err := spec.Cells()
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	spec.Precision = prec

	// Placement: an explicit worker list wins, then the service's
	// default fleet; "local":true forces the in-process pool.
	var fleet []string
	if !body.Local {
		for _, wk := range body.Workers {
			if u := campaign.NormalizeWorkerURL(wk); u != "" {
				fleet = append(fleet, u)
			}
		}
		if len(fleet) == 0 {
			fleet = s.fleet
		}
	}

	ctx, cancel := context.WithCancel(s.baseCtx)
	s.mu.Lock()
	s.seq++
	r := &run{
		seq:     s.seq,
		id:      fmt.Sprintf("c%d", s.seq),
		name:    body.Name,
		scale:   sc,
		workers: len(fleet),
		prec:    spec.Precision,
		status:  "queued",
		total:   len(cells), // adaptive runs: cells, not waves
		cancel:  cancel,
	}
	s.runs[r.id] = r
	s.mu.Unlock()

	// Every run gets a journal; -journals decides whether it also
	// persists as JSONL. A journal-file error degrades to memory-only
	// rather than rejecting the submission — journaling is
	// observational, never load-bearing for the campaign.
	var jpath string
	if s.journalDir != "" {
		jpath = filepath.Join(s.journalDir, r.id+".journal.jsonl")
	}
	jnl, jerr := campaign.NewJournal(r.id, jpath)
	if jerr != nil {
		log.Printf("mmmd: journal for %s: %v (falling back to memory-only)", r.id, jerr)
		jnl, _ = campaign.NewJournal(r.id, "")
	}
	r.jnl = jnl

	s.wg.Add(1)
	go s.execute(ctx, r, spec, fleet)

	writeJSON(w, http.StatusAccepted, r.snapshot())
}

// execute runs one campaign to completion, respecting the
// per-service concurrency bound. A non-empty fleet shards the jobs
// across remote workers; otherwise the local bounded pool runs them.
// Both lease from the same kind of campaign board and share the
// service cache, so a campaign started locally finishes remotely (and
// vice versa) without re-simulating. Specs with a precision block run
// adaptively on either path.
func (s *server) execute(ctx context.Context, r *run, spec campaign.Spec, fleet []string) {
	defer s.wg.Done()
	defer r.cancel()

	select {
	case s.sem <- struct{}{}:
		defer func() { <-s.sem }()
	case <-ctx.Done():
		r.jnl.Finish(ctx.Err())
		r.finish(nil, nil, ctx.Err())
		r.attribute()
		s.reap()
		return
	}

	r.mu.Lock()
	r.status = "running"
	r.started = time.Now()
	r.mu.Unlock()

	onProgress := func(done, total, hits int) {
		r.mu.Lock()
		r.done, r.hits = done, hits
		r.mu.Unlock()
	}
	var runner campaign.Runner
	if len(fleet) > 0 {
		runner = campaign.NewDispatcher(campaign.DispatchOptions{
			Workers:    fleet,
			Cache:      s.cache,
			OnProgress: onProgress,
			Obs:        s.fleetObs,
			Journal:    r.jnl,
		})
	} else {
		runner = campaign.New(campaign.Options{
			Parallel:   s.parallel,
			Cache:      s.cache,
			OnProgress: onProgress,
			OnJobTime:  func(d time.Duration) { s.jobSeconds.Observe(d.Seconds()) },
			Journal:    r.jnl,
			TraceDir:   s.traceDir,
			TraceMatch: s.traceMatch,
			OnTrace: func(total, dropped uint64) {
				s.traceEvents.Add(total)
				s.traceDropped.Add(dropped)
			},
		})
	}
	rs, err := campaign.RunSpec(ctx, runner, r.scale, spec)
	r.jnl.Finish(err)
	if err != nil {
		r.finish(nil, nil, err)
		r.attribute()
		s.reap()
		return
	}
	r.finish(rs, campaign.Summarize(rs), nil)
	r.attribute()
	s.reap()
}

// attribute derives the run's wall-clock attribution report from its
// journal; called once the run is terminal (the journal is closed).
func (r *run) attribute() {
	if r.jnl == nil {
		return
	}
	rep := campaign.Attribute(r.id, r.jnl.Events())
	r.mu.Lock()
	r.report = &rep
	r.mu.Unlock()
}

// reap enforces the completed-run retention cap: when more than retain
// runs have reached a terminal state (done, failed, canceled), the
// oldest are evicted from the runs map. Queued and running campaigns
// are never touched.
func (s *server) reap() {
	s.mu.Lock()
	defer s.mu.Unlock()
	var terminal []*run
	for _, r := range s.runs {
		r.mu.Lock()
		st := r.status
		r.mu.Unlock()
		if st == "done" || st == "failed" || st == "canceled" {
			terminal = append(terminal, r)
		}
	}
	if len(terminal) <= s.retain {
		return
	}
	sort.Slice(terminal, func(i, j int) bool { return terminal[i].seq < terminal[j].seq })
	for _, r := range terminal[:len(terminal)-s.retain] {
		delete(s.runs, r.id)
		s.evicted++
		// The retention cap bounds journal disk too: an evicted run's
		// JSONL file goes with it.
		if p := r.jnl.Path(); p != "" {
			if err := os.Remove(p); err != nil && !os.IsNotExist(err) {
				log.Printf("mmmd: evict journal %s: %v", p, err)
			}
		}
	}
}

// finish records a campaign's terminal state.
func (r *run) finish(rs *campaign.ResultSet, rows []stats.Row, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.finished = time.Now()
	if !r.started.IsZero() {
		r.wall = r.finished.Sub(r.started)
	}
	switch {
	case errors.Is(err, context.Canceled):
		// errors.Is, not ==: the engine may surface a wrapped
		// cancellation (fmt.Errorf %w, context.Cause) and a canceled
		// run must never be reported as failed.
		r.status = "canceled"
	case err != nil:
		r.status = "failed"
		r.errMsg = err.Error()
	default:
		r.status = "done"
		r.rows = rows
		r.hits = rs.Hits
		r.done = len(rs.Results)
		r.wall = rs.Wall
	}
}

func (s *server) lookup(w http.ResponseWriter, req *http.Request) *run {
	s.mu.Lock()
	r := s.runs[req.PathValue("id")]
	s.mu.Unlock()
	if r == nil {
		httpError(w, http.StatusNotFound, "no campaign %q", req.PathValue("id"))
	}
	return r
}

// runSnapshots returns a status snapshot of every retained run in
// submission order (ids are "c<seq>", so shorter ids sort first), and
// the count of runs evicted by the retention cap.
func (s *server) runSnapshots() ([]api.RunStatus, uint64) {
	s.mu.Lock()
	runs := make([]*run, 0, len(s.runs))
	for _, r := range s.runs {
		runs = append(runs, r)
	}
	evicted := s.evicted
	s.mu.Unlock()

	snaps := make([]api.RunStatus, 0, len(runs))
	for _, r := range runs {
		snaps = append(snaps, r.snapshot())
	}
	sort.Slice(snaps, func(i, j int) bool {
		a, b := snaps[i].ID, snaps[j].ID
		if len(a) != len(b) {
			return len(a) < len(b)
		}
		return a < b
	})
	return snaps, evicted
}

// handleServiceStatus reports service-level health: uptime, runs by
// state, per-run progress snapshots, and the shared result cache's
// hit/miss/store counters.
func (s *server) handleServiceStatus(w http.ResponseWriter, _ *http.Request) {
	snaps, evicted := s.runSnapshots()
	byStatus := map[string]int{}
	for _, st := range snaps {
		byStatus[st.Status]++
	}
	out := map[string]any{
		"status":    "ok",
		"uptime_ms": time.Since(s.started).Milliseconds(),
		"campaigns": map[string]any{"total": len(snaps), "by_status": byStatus, "evicted": evicted},
		"runs":      snaps,
	}
	if s.counting != nil {
		hits, misses, puts := s.counting.Stats()
		out["cache"] = map[string]uint64{"hits": hits, "misses": misses, "stores": puts}
	} else {
		out["cache"] = nil
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *server) handleList(w http.ResponseWriter, _ *http.Request) {
	snaps, _ := s.runSnapshots()
	writeJSON(w, http.StatusOK, api.RunList{Campaigns: snaps})
}

func (s *server) handleStatus(w http.ResponseWriter, req *http.Request) {
	if r := s.lookup(w, req); r != nil {
		writeJSON(w, http.StatusOK, r.snapshot())
	}
}

func (s *server) handleResults(w http.ResponseWriter, req *http.Request) {
	r := s.lookup(w, req)
	if r == nil {
		return
	}
	r.mu.Lock()
	status, rows := r.status, r.rows
	r.mu.Unlock()
	if status != "done" {
		httpError(w, http.StatusConflict, "campaign %s is %s, results require done", r.id, status)
		return
	}
	switch req.URL.Query().Get("format") {
	case "", "json":
		w.Header().Set("Content-Type", "application/json")
		_ = stats.WriteRowsJSON(w, rows)
	case "csv":
		w.Header().Set("Content-Type", "text/csv")
		_ = stats.WriteRowsCSV(w, rows)
	default:
		httpError(w, http.StatusBadRequest, "unknown format %q (json, csv)", req.URL.Query().Get("format"))
	}
}

func (s *server) handleCancel(w http.ResponseWriter, req *http.Request) {
	r := s.lookup(w, req)
	if r == nil {
		return
	}
	r.cancel()
	writeJSON(w, http.StatusOK, r.snapshot())
}

// drain waits for all campaign goroutines to finish; the caller cancels
// the base context first during shutdown.
func (s *server) drain() { s.wg.Wait() }

// scaleOf resolves the request's scale preset and overrides. Overrides
// are pointers: present-but-zero is applied (a zero-warmup campaign is
// legitimate), absent means "keep the preset".
func scaleOf(body api.SubmitRequest) (campaign.Scale, error) {
	var sc campaign.Scale
	switch body.Scale {
	case "", "default":
		sc = campaign.DefaultScale()
	case "quick":
		sc = campaign.QuickScale()
	default:
		return sc, fmt.Errorf("unknown scale %q (default, quick)", body.Scale)
	}
	if body.Warmup != nil {
		sc.Warmup = sim.Cycle(*body.Warmup)
	}
	if body.Measure != nil {
		if *body.Measure == 0 {
			return sc, fmt.Errorf("measure must be positive")
		}
		sc.Measure = sim.Cycle(*body.Measure)
	}
	if body.Timeslice != nil {
		if *body.Timeslice == 0 {
			return sc, fmt.Errorf("timeslice must be positive")
		}
		sc.Timeslice = sim.Cycle(*body.Timeslice)
	}
	return sc, nil
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, api.ErrorResponse{Error: fmt.Sprintf(format, args...)})
}
