// Observability wiring for mmmd: the Prometheus-text /metrics
// endpoint (coordinator and -worker mode), the HTTP access-log
// middleware, and the opt-in pprof mount. All of it is service-level —
// nothing here touches simulation state, so scraping a busy mmmd
// cannot perturb any campaign result.

package main

import (
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/api"
	"repro/internal/campaign"
	"repro/internal/obs"
)

// runStatuses is the fixed status vocabulary; the runs-by-status
// collector always emits every one so dashboards see explicit zeros.
var runStatuses = []string{"queued", "running", "done", "failed", "canceled"}

// initMetrics builds the coordinator's registry: fleet instruments,
// the local job-latency histogram, and collectors over the server's
// run table and cache counters.
func (s *server) initMetrics() {
	r := obs.NewRegistry()
	s.reg = r
	s.fleetObs = campaign.NewFleetObs(r)
	s.jobSeconds = r.Histogram("mmmd_job_seconds",
		"Wall time of locally simulated campaign jobs (cache hits excluded).", nil)
	s.traceEvents, s.traceDropped = traceCounters(r, "local")
	r.RegisterCollector(func(emit func(obs.Sample)) {
		emit(obs.Sample{Name: "mmmd_uptime_seconds",
			Help: "Seconds since the service started.", Type: "gauge",
			Value: time.Since(s.started).Seconds()})

		s.mu.Lock()
		byStatus := make(map[string]int, len(runStatuses))
		type cell struct {
			id, name    string
			done, total int
		}
		cells := make([]cell, 0, len(s.runs))
		for _, r := range s.runs {
			r.mu.Lock()
			byStatus[r.status]++
			cells = append(cells, cell{r.id, r.name, r.done, r.total})
			r.mu.Unlock()
		}
		evicted := s.evicted
		s.mu.Unlock()

		for _, st := range runStatuses {
			emit(obs.Sample{Name: "mmmd_campaign_runs",
				Help: "Campaign runs by state.", Type: "gauge",
				Labels: []string{"status", st}, Value: float64(byStatus[st])})
		}
		emit(obs.Sample{Name: "mmmd_runs_evicted_total",
			Help: "Completed runs dropped by the retention cap.", Type: "counter",
			Value: float64(evicted)})
		for _, c := range cells {
			labels := []string{"id", c.id, "name", c.name}
			emit(obs.Sample{Name: "mmmd_campaign_cells_done",
				Help: "Completed cells per retained campaign run.", Type: "gauge",
				Labels: labels, Value: float64(c.done)})
			emit(obs.Sample{Name: "mmmd_campaign_cells_total",
				Help: "Total cells per retained campaign run.", Type: "gauge",
				Labels: labels, Value: float64(c.total)})
		}
		if s.counting != nil {
			hits, misses, puts := s.counting.Stats()
			emit(obs.Sample{Name: "mmmd_cache_hits_total",
				Help: "Result-cache hits across all campaigns.", Type: "counter",
				Value: float64(hits)})
			emit(obs.Sample{Name: "mmmd_cache_misses_total",
				Help: "Result-cache misses across all campaigns.", Type: "counter",
				Value: float64(misses)})
			emit(obs.Sample{Name: "mmmd_cache_stores_total",
				Help: "Result-cache stores across all campaigns.", Type: "counter",
				Value: float64(puts)})
		}
		emit(obs.Sample{Name: "mmmd_journal_bytes",
			Help: "On-disk bytes across retained run journals.", Type: "gauge",
			Value: float64(journalBytes(s.journalDir))})
	})
}

// journalBytes sums the run-journal files on disk; 0 when journaling
// is memory-only. Scrape-time stat of at most retain+live files — far
// off any hot path.
func journalBytes(dir string) int64 {
	if dir == "" {
		return 0
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	var total int64
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".journal.jsonl") {
			continue
		}
		if info, err := e.Info(); err == nil {
			total += info.Size()
		}
	}
	return total
}

// traceCounters registers the flight-recorder volume counters that
// traced jobs' OnTrace callbacks feed; jobs names the jobs in the help
// text.
func traceCounters(r *obs.Registry, jobs string) (events, dropped *obs.Counter) {
	events = r.Counter("mmmd_trace_events_total",
		"Flight-recorder events captured by traced "+jobs+" jobs.")
	dropped = r.Counter("mmmd_trace_events_dropped_total",
		"Flight-recorder events dropped by the ring buffer (traced "+jobs+" jobs).")
	return events, dropped
}

// workerRegistry builds the -worker mode registry: the worker's pull
// counters plus the shared job-latency histogram fed via OnJobTime and
// the flight-recorder volume counters fed via OnTrace.
func workerRegistry(w *campaign.Worker, started time.Time) (r *obs.Registry, jobSeconds *obs.Histogram, traceEvents, traceDropped *obs.Counter) {
	r = obs.NewRegistry()
	jobSeconds = r.Histogram("mmmd_job_seconds",
		"Wall time of leased jobs this worker simulated (local cache hits excluded).", nil)
	traceEvents, traceDropped = traceCounters(r, "leased")
	r.RegisterCollector(func(emit func(obs.Sample)) {
		st := w.Stats()
		emit(obs.Sample{Name: "mmmd_uptime_seconds",
			Help: "Seconds since the worker started.", Type: "gauge",
			Value: time.Since(started).Seconds()})
		emit(obs.Sample{Name: "mmmd_worker_capacity",
			Help: "Concurrent lease slots.", Type: "gauge",
			Value: float64(st.Capacity)})
		emit(obs.Sample{Name: "mmmd_worker_attachments",
			Help: "Live coordinator attachments.", Type: "gauge",
			Value: float64(st.Attachments)})
		emit(obs.Sample{Name: "mmmd_worker_attach_total",
			Help: "Attach invitations accepted.", Type: "counter",
			Value: float64(st.AttachTotal)})
		emit(obs.Sample{Name: "mmmd_worker_jobs_done_total",
			Help: "Leased jobs completed successfully.", Type: "counter",
			Value: float64(st.JobsDone)})
		emit(obs.Sample{Name: "mmmd_worker_jobs_failed_total",
			Help: "Leased jobs that errored.", Type: "counter",
			Value: float64(st.JobsFailed)})
		emit(obs.Sample{Name: "mmmd_worker_leases_lost_total",
			Help: "Leases revoked or expired under this worker.", Type: "counter",
			Value: float64(st.LeasesLost)})
	})
	return r, jobSeconds, traceEvents, traceDropped
}

// workerHandler routes a -worker node: the worker's protocol endpoints
// behind the same observability surface as the coordinator — /metrics
// always, pprof only behind -debug, every request through accessLog.
// The protocol endpoints keep their own mux so the lease paths are
// untouched.
func workerHandler(w *campaign.Worker, reg *obs.Registry, debug bool) http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/", w.Handler())
	mux.HandleFunc("GET /metrics", metricsHandler(reg))
	if debug {
		mountPprof(mux)
	}
	return accessLog(mux, reg)
}

// metricsHandler serves a registry as Prometheus text exposition.
func metricsHandler(reg *obs.Registry) http.HandlerFunc {
	return func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = reg.WritePrometheus(w)
	}
}

// mountPprof exposes net/http/pprof on the given mux. Only called
// behind -debug: profiling endpoints can stall a loaded service and
// leak internals, so they are opt-in per process.
func mountPprof(mux *http.ServeMux) {
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

// statusWriter captures the response code for the access log.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// Flush forwards to the wrapped writer so streaming responses (the
// SSE events endpoint) flush through the access-log middleware —
// without this, the http.Flusher assertion in the SSE handler would
// see only the wrapper and every event would sit in the buffer until
// the run ended.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Label values for requests outside the service's vocabulary: a path
// no route serves, and a method other than the nine standard ones
// (OpenTelemetry's "_OTHER"). Each folds every such request into one
// value, so a client cannot add mmmd_http_requests_total series by
// sending new paths or methods.
const (
	unmatchedRoute = "unmatched"
	otherMethod    = "_OTHER"
)

// routes is the path-label vocabulary: every route the coordinator
// (apiRoutes) and the -worker mux (its attach route) serve, plus the
// removed unversioned spellings of those API routes (404s that keep
// labels of their own).
var routes = func() map[string]bool {
	m := map[string]bool{"/healthz": true, "/metrics": true, "/debug/pprof/": true}
	for _, p := range []string{"cmdline", "profile", "symbol", "trace",
		"allocs", "block", "goroutine", "heap", "mutex", "threadcreate"} {
		m["/debug/pprof/"+p] = true
	}
	m[api.PathPrefix+"/attach"], m["/attach"] = true, true
	for _, rt := range apiRoutes {
		m[api.PathPrefix+rt.path], m[rt.path] = true, true
	}
	return m
}()

// routeLabel collapses a request path onto its route pattern and
// extracts the campaign run id when the path carries one. A path
// outside routes is unmatchedRoute, with no run id.
func routeLabel(path string) (pattern, runID string) {
	pattern = path
	parts := strings.Split(strings.Trim(path, "/"), "/")
	prefix := ""
	if len(parts) >= 1 && parts[0] == strings.Trim(api.PathPrefix, "/") {
		prefix = api.PathPrefix
		parts = parts[1:]
	}
	if len(parts) >= 2 && parts[0] == "campaigns" && parts[1] != "" {
		runID = parts[1]
		pattern = prefix + "/campaigns/{id}"
		if len(parts) > 2 {
			pattern += "/" + strings.Join(parts[2:], "/")
		}
	}
	if !routes[pattern] {
		return unmatchedRoute, ""
	}
	return pattern, runID
}

// methodLabel passes the standard HTTP methods through and folds every
// other method into otherMethod.
func methodLabel(method string) string {
	switch method {
	case http.MethodGet, http.MethodHead, http.MethodPost, http.MethodPut, http.MethodPatch,
		http.MethodDelete, http.MethodConnect, http.MethodOptions, http.MethodTrace:
		return method
	}
	return otherMethod
}

// accessLog wraps a handler with the service's one logging middleware:
// every request is logged (method, path, status, latency, run id when
// present) and counted into the registry under bounded labels.
func accessLog(next http.Handler, reg *obs.Registry) http.Handler {
	seconds := reg.Histogram("mmmd_http_request_seconds",
		"HTTP request latency.", nil)
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		next.ServeHTTP(sw, req)
		elapsed := time.Since(start)
		pattern, runID := routeLabel(req.URL.Path)
		reg.Counter("mmmd_http_requests_total", "HTTP requests by route and status.",
			"method", methodLabel(req.Method), "path", pattern, "code", strconv.Itoa(sw.code)).Inc()
		seconds.Observe(elapsed.Seconds())
		if runID != "" {
			log.Printf("mmmd: http %s %s -> %d in %s run=%s",
				req.Method, req.URL.Path, sw.code, elapsed.Round(time.Microsecond), runID)
		} else {
			log.Printf("mmmd: http %s %s -> %d in %s",
				req.Method, req.URL.Path, sw.code, elapsed.Round(time.Microsecond))
		}
	})
}
