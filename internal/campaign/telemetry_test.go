package campaign

import (
	"bytes"
	"context"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/obs"
	"repro/internal/sim"
)

// TestTelemetryDoesNotChangeRows is the ISSUE's hard requirement at
// the campaign level: the same sweep with tracing and metrics enabled
// must produce byte-identical canonical rows to a plain run.
func TestTelemetryDoesNotChangeRows(t *testing.T) {
	jobs := determinismJobs(t)
	plain, _ := summarizeJSON(t, New(Options{Parallel: 2}), jobs)

	dir := t.TempDir()
	reg := obs.NewRegistry()
	jobSeconds := reg.Histogram("job_seconds", "")
	traced, _ := summarizeJSON(t, New(Options{
		Parallel:  2,
		TraceDir:  dir,
		OnJobTime: func(d time.Duration) { jobSeconds.Observe(d.Seconds()) },
	}), jobs)

	if !bytes.Equal(plain, traced) {
		t.Fatalf("telemetry changed campaign rows:\nplain:  %s\ntraced: %s", plain, traced)
	}
	if jobSeconds.Count() != uint64(len(jobs)) {
		t.Fatalf("OnJobTime fired %d times, want %d", jobSeconds.Count(), len(jobs))
	}
	// Every simulated job left a perfetto trace and a JSONL twin.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var chrome, jsonl int
	for _, e := range entries {
		switch {
		case strings.HasSuffix(e.Name(), ".trace.json"):
			chrome++
		case strings.HasSuffix(e.Name(), ".trace.jsonl"):
			jsonl++
		}
	}
	if chrome != len(jobs) || jsonl != len(jobs) {
		t.Fatalf("trace files: %d chrome + %d jsonl, want %d each", chrome, jsonl, len(jobs))
	}
}

// TestTraceMatchFilters: the per-cell opt-in knob traces only jobs
// whose key matches.
func TestTraceMatchFilters(t *testing.T) {
	jobs := determinismJobs(t)
	match := jobs[0].Key()
	var want int
	for _, j := range jobs {
		if strings.Contains(j.Key(), match) {
			want++
		}
	}
	if want == len(jobs) {
		t.Fatalf("match %q selects every job; filter test is vacuous", match)
	}
	dir := t.TempDir()
	if _, err := New(Options{Parallel: 2, TraceDir: dir, TraceMatch: match}).
		Run(context.Background(), microScale(), jobs); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var chrome int
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".trace.json") {
			chrome++
		}
	}
	if chrome != want {
		t.Fatalf("matched traces = %d, want %d (match %q)", chrome, want, match)
	}
}

// TestDistributedTelemetryMatchesLocal is satellite 4's distributed
// half: a 2-worker sharded campaign with tracing and fleet metrics
// enabled produces rows byte-identical to a plain local run.
func TestDistributedTelemetryMatchesLocal(t *testing.T) {
	jobs := determinismJobs(t)
	local, _ := runRows(t, New(Options{Parallel: 2}), jobs)

	dir := t.TempDir()
	mkWorker := func(name string) *httptest.Server {
		w := NewWorker(WorkerOptions{
			Name:     name,
			Capacity: 2,
			TraceDir: dir,
		})
		ts := httptest.NewServer(w.Handler())
		t.Cleanup(func() {
			w.Stop()
			ts.Close()
		})
		return ts
	}
	ts1, ts2 := mkWorker("w1"), mkWorker("w2")

	reg := obs.NewRegistry()
	fobs := NewFleetObs(reg)
	remote, rs := runRows(t, NewDispatcher(DispatchOptions{
		Workers:  []string{ts1.URL, ts2.URL},
		LeaseTTL: 2 * time.Second,
		Obs:      fobs,
	}), jobs)

	if !bytes.Equal(local, remote) {
		t.Fatalf("telemetry-enabled distributed run diverges from local:\nlocal:  %s\nremote: %s", local, remote)
	}
	if rs.Misses != len(jobs) {
		t.Fatalf("distributed run misses=%d, want %d", rs.Misses, len(jobs))
	}

	// The fleet instruments saw the campaign: every job granted and
	// completed, both workers observed.
	snap := reg.Snapshot()
	if got := snap["mmm_fleet_lease_grants_total"]; got < float64(len(jobs)) {
		t.Errorf("lease grants = %v, want >= %d", got, len(jobs))
	}
	if got := snap["mmm_fleet_jobs_completed_total"]; got != float64(len(jobs)) {
		t.Errorf("jobs completed = %v, want %d", got, len(jobs))
	}
	for _, w := range []string{"w1", "w2"} {
		key := fmt.Sprintf("mmm_fleet_worker_age_seconds{worker=%q}", w)
		if _, ok := snap[key]; !ok {
			t.Errorf("no heartbeat age for %s (snapshot keys: %v)", w, keysOf(snap))
		}
	}

	// Workers wrote per-job traces (every job simulated exactly once
	// across the fleet).
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var chrome int
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".trace.json") {
			chrome++
		}
	}
	if chrome != len(jobs) {
		t.Fatalf("worker traces = %d, want %d", chrome, len(jobs))
	}
}

func keysOf(m map[string]float64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// TestTraceFilesAreValid: a worker-written trace must load as Chrome
// trace-event JSON with at least one simulation event.
func TestTraceFilesAreValid(t *testing.T) {
	jobs := determinismJobs(t)[:1]
	dir := t.TempDir()
	if _, err := New(Options{Parallel: 1, TraceDir: dir}).
		Run(context.Background(), microScale(), jobs); err != nil {
		t.Fatal(err)
	}
	matches, err := filepath.Glob(filepath.Join(dir, "*.trace.json"))
	if err != nil || len(matches) != 1 {
		t.Fatalf("trace glob: %v, %v", matches, err)
	}
	data, err := os.ReadFile(matches[0])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(data, []byte(`"traceEvents"`)) || !bytes.Contains(data, []byte(`"bulk-step"`)) {
		t.Fatalf("trace file lacks expected content:\n%.300s", data)
	}
}

// TestExplainCheckMismatch (satellite 1): compat refusals must name
// WHICH component mismatched.
func TestExplainCheckMismatch(t *testing.T) {
	ours := protocolCheck()
	digest := sim.StreamCheck()
	cases := []struct {
		theirs string
		want   string
	}{
		{fmt.Sprintf("p%d.s%d.%s", protoVersion+1, api.SpecVersion, digest), "wire protocol version mismatch"},
		{fmt.Sprintf("p%d.s%d.%s", protoVersion, api.SpecVersion+7, digest), "campaign SpecVersion mismatch"},
		{fmt.Sprintf("p%d.s%d.%s", protoVersion, api.SpecVersion, "deadbeef"), "RNG stream digest mismatch"},
		{"garbage", "unrecognized check format"},
		{ours, "spurious"},
	}
	for _, tc := range cases {
		got := explainCheckMismatch(ours, tc.theirs)
		if !strings.Contains(got, tc.want) {
			t.Errorf("explainCheckMismatch(%q, %q) = %q, want substring %q", ours, tc.theirs, got, tc.want)
		}
	}
	// Precedence: when several components differ, the outermost (wire
	// protocol) is named — it gates everything behind it.
	multi := fmt.Sprintf("p%d.s%d.%s", protoVersion+1, api.SpecVersion+1, "zzz")
	if got := explainCheckMismatch(ours, multi); !strings.Contains(got, "wire protocol version mismatch") {
		t.Errorf("multi-component mismatch named %q, want wire protocol first", got)
	}
}
