package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/campaign"
	"repro/internal/obs"
)

// TestMetricsEndpoint scrapes GET /metrics after a completed campaign
// and validates the page with the repository's strict exposition
// parser: required families present, the ISSUE's 12-series floor met.
func TestMetricsEndpoint(t *testing.T) {
	ts := testService(t)
	if st := submitAndWait(t, ts, micro); st.Status != "done" {
		t.Fatalf("campaign: %+v", st)
	}

	code, data := do(t, http.MethodGet, ts.URL+"/metrics", "")
	if code != http.StatusOK {
		t.Fatalf("metrics: %d %s", code, data)
	}
	fams, err := obs.ParseExposition(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, data)
	}
	for _, want := range []string{
		"mmmd_uptime_seconds",
		"mmmd_campaign_runs",
		"mmmd_runs_evicted_total",
		"mmmd_campaign_cells_done",
		"mmmd_campaign_cells_total",
		"mmmd_cache_hits_total",
		"mmmd_cache_misses_total",
		"mmmd_cache_stores_total",
		"mmmd_job_seconds",
		"mmmd_http_requests_total",
		"mmmd_http_request_seconds",
	} {
		if f := fams[want]; f == nil || len(f.Series) == 0 {
			t.Errorf("family %s missing from /metrics\n%s", want, data)
		}
	}
	if n := obs.TotalSeries(fams); n < 12 {
		t.Fatalf("only %d series, ISSUE requires >= 12\n%s", n, data)
	}
	// Runs-by-status always emits the full vocabulary, with this run
	// counted under done.
	if !bytes.Contains(data, []byte(`mmmd_campaign_runs{status="done"} 1`)) {
		t.Errorf("done run not counted:\n%s", data)
	}
	for _, st := range runStatuses {
		if !bytes.Contains(data, []byte(`mmmd_campaign_runs{status="`+st+`"}`)) {
			t.Errorf("status %q missing from runs-by-status", st)
		}
	}
	// The campaign's local jobs fed the latency histogram.
	if !bytes.Contains(data, []byte("mmmd_job_seconds_count")) {
		t.Errorf("job latency histogram missing:\n%s", data)
	}
	// Content type advertises the exposition version.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("content type %q lacks exposition version", ct)
	}
}

// TestAccessLogCountsRequests: the middleware counts requests by
// route pattern (bounded cardinality — per-run ids collapse to {id}).
func TestAccessLogCountsRequests(t *testing.T) {
	ts := testService(t)
	if st := submitAndWait(t, ts, micro); st.Status != "done" {
		t.Fatalf("campaign: %+v", st)
	}
	do(t, http.MethodGet, ts.URL+"/v1/campaigns/c1/results", "")
	do(t, http.MethodGet, ts.URL+"/v1/campaigns/c1/events?after=999999", "")
	_, data := do(t, http.MethodGet, ts.URL+"/metrics", "")
	for _, want := range []string{
		`path="/v1/campaigns/{id}"`,
		`path="/v1/campaigns/{id}/results"`,
		`path="/v1/campaigns/{id}/events"`,
		`method="POST"`,
	} {
		if !bytes.Contains(data, []byte(want)) {
			t.Errorf("request counter missing %s:\n%s", want, data)
		}
	}
	if bytes.Contains(data, []byte(`path="/v1/campaigns/c1"`)) {
		t.Error("raw run id leaked into the path label (unbounded cardinality)")
	}
}

func TestRouteLabel(t *testing.T) {
	cases := []struct {
		path, pattern, id string
	}{
		{"/campaigns/c12", "/campaigns/{id}", "c12"},
		{"/campaigns/c3/results", "/campaigns/{id}/results", "c3"},
		{"/campaigns/c7/events", "/campaigns/{id}/events", "c7"},
		{"/campaigns/c3/cancel", "/campaigns/{id}/cancel", "c3"},
		{"/campaigns", "/campaigns", ""},
		{"/status", "/status", ""},
		{"/metrics", "/metrics", ""},
	}
	for _, tc := range cases {
		pattern, id := routeLabel(tc.path)
		if pattern != tc.pattern || id != tc.id {
			t.Errorf("routeLabel(%q) = (%q, %q), want (%q, %q)",
				tc.path, pattern, id, tc.pattern, tc.id)
		}
	}
}

// TestPprofGatedBehindDebug: profiling endpoints must be absent by
// default and present with -debug.
func TestPprofGatedBehindDebug(t *testing.T) {
	plain := testService(t)
	if code, _ := do(t, http.MethodGet, plain.URL+"/debug/pprof/", ""); code != http.StatusNotFound {
		t.Fatalf("pprof without -debug: %d, want 404", code)
	}

	srv := newServer(context.Background(), nil, 2, 2)
	srv.debug = true
	ts := httptest.NewServer(srv.handler())
	t.Cleanup(ts.Close)
	code, data := do(t, http.MethodGet, ts.URL+"/debug/pprof/", "")
	if code != http.StatusOK || !bytes.Contains(data, []byte("goroutine")) {
		t.Fatalf("pprof with -debug: %d %.200s", code, data)
	}
}

// TestServiceStatusIncludesRuns: GET /status now carries per-run
// progress snapshots in submission order.
func TestServiceStatusIncludesRuns(t *testing.T) {
	ts := testService(t)
	first := submitAndWait(t, ts, micro)
	second := submitAndWait(t, ts, micro)
	_, data := do(t, http.MethodGet, ts.URL+"/v1/status", "")
	var st struct {
		Runs []api.RunStatus `json:"runs"`
	}
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatalf("status body: %v\n%s", err, data)
	}
	if len(st.Runs) != 2 || st.Runs[0].ID != first.ID || st.Runs[1].ID != second.ID {
		t.Fatalf("runs array wrong: %s", data)
	}
	if st.Runs[0].Done != st.Runs[0].Jobs || st.Runs[0].Status != "done" {
		t.Fatalf("run progress wrong: %+v", st.Runs[0])
	}
}

// TestWorkerRegistryExposition: the -worker mode registry exposes the
// worker's pull counters and parses as valid text exposition.
func TestWorkerRegistryExposition(t *testing.T) {
	w := campaign.NewWorker(campaign.WorkerOptions{Name: "wx", Capacity: 3})
	t.Cleanup(w.Stop)
	reg, jobSeconds, traces := workerRegistry(w, time.Now())
	jobSeconds.Observe(0.25)
	traces.add(100, 7)

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	fams, err := obs.ParseExposition(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("worker exposition invalid: %v\n%s", err, buf.String())
	}
	for _, want := range []string{
		"mmmd_uptime_seconds",
		"mmmd_worker_capacity",
		"mmmd_worker_attachments",
		"mmmd_worker_attach_total",
		"mmmd_worker_jobs_done_total",
		"mmmd_worker_jobs_failed_total",
		"mmmd_worker_leases_lost_total",
		"mmmd_job_seconds",
		"mmmd_trace_events_total",
		"mmmd_trace_events_dropped_total",
	} {
		if f := fams[want]; f == nil || len(f.Series) == 0 {
			t.Errorf("worker family %s missing\n%s", want, buf.String())
		}
	}
	if !strings.Contains(buf.String(), "mmmd_worker_capacity 3") {
		t.Errorf("capacity gauge wrong:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), "mmmd_job_seconds_count 1") {
		t.Errorf("job histogram not fed:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), "mmmd_trace_events_dropped_total 7") {
		t.Errorf("trace drop counter not fed:\n%s", buf.String())
	}
}
