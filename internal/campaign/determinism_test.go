package campaign

import (
	"bytes"
	"context"
	"runtime"
	"strings"
	"testing"

	"repro/internal/stats"
)

// determinismJobs is a small but representative sweep: two system
// kinds, two seeds, one knob variant.
func determinismJobs(tb testing.TB) []Job {
	tb.Helper()
	spec, err := Named("tso", []string{"apache"}, []uint64{11, 23})
	if err != nil {
		tb.Fatal(err)
	}
	jobs, err := spec.Expand()
	if err != nil {
		tb.Fatal(err)
	}
	return jobs
}

// summarizeJSON runs jobs on an engine and renders the aggregated rows
// as canonical JSON bytes.
func summarizeJSON(t *testing.T, eng *Engine, jobs []Job) ([]byte, *ResultSet) {
	t.Helper()
	rs, err := eng.Run(context.Background(), microScale(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := stats.WriteRowsJSON(&buf, Summarize(rs)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), rs
}

// TestParallelismDeterminism: the same spec run with Parallel=1 and
// Parallel=NumCPU must produce byte-identical aggregated results — the
// worker pool's scheduling must not leak into the output.
func TestParallelismDeterminism(t *testing.T) {
	jobs := determinismJobs(t)
	seq, _ := summarizeJSON(t, New(Options{Parallel: 1}), jobs)
	par, _ := summarizeJSON(t, New(Options{Parallel: runtime.NumCPU()}), jobs)
	if !bytes.Equal(seq, par) {
		t.Fatalf("sequential and parallel runs diverge:\nseq: %s\npar: %s", seq, par)
	}
	if len(seq) == 0 || string(seq) == "[]\n" {
		t.Fatal("summary is empty")
	}
}

// TestCacheWarmRerunIdentical: a rerun against a warm cache must hit on
// every job and emit byte-identical rows.
func TestCacheWarmRerunIdentical(t *testing.T) {
	jobs := determinismJobs(t)
	cache, err := NewDiskCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	eng := New(Options{Parallel: runtime.NumCPU(), Cache: cache})

	cold, rs := summarizeJSON(t, eng, jobs)
	if rs.Hits != 0 || rs.Misses != len(jobs) {
		t.Fatalf("cold run: hits=%d misses=%d, want 0/%d", rs.Hits, rs.Misses, len(jobs))
	}
	warm, rs2 := summarizeJSON(t, eng, jobs)
	if rs2.Hits != len(jobs) || rs2.Misses != 0 {
		t.Fatalf("warm run: hits=%d misses=%d, want %d/0", rs2.Hits, rs2.Misses, len(jobs))
	}
	if !bytes.Equal(cold, warm) {
		t.Fatalf("warm rerun diverges from cold run:\ncold: %s\nwarm: %s", cold, warm)
	}
}

// TestInterruptedCampaignResumes: a campaign that only partially
// completed resumes from the cache — already-finished jobs are hits,
// only the remainder simulates — and the final output matches an
// uninterrupted run.
func TestInterruptedCampaignResumes(t *testing.T) {
	jobs := determinismJobs(t)
	if len(jobs) < 4 {
		t.Fatalf("need >= 4 jobs, have %d", len(jobs))
	}
	cache, err := NewDiskCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	eng := New(Options{Parallel: 2, Cache: cache})

	// "Interrupted": only the first half of the campaign completed.
	half := jobs[:len(jobs)/2]
	if _, err := eng.Run(context.Background(), microScale(), half); err != nil {
		t.Fatal(err)
	}

	resumed, rs := summarizeJSON(t, eng, jobs)
	if rs.Hits != len(half) || rs.Misses != len(jobs)-len(half) {
		t.Fatalf("resume: hits=%d misses=%d, want %d/%d",
			rs.Hits, rs.Misses, len(half), len(jobs)-len(half))
	}

	full, _ := summarizeJSON(t, New(Options{Parallel: 2}), jobs)
	if !bytes.Equal(resumed, full) {
		t.Fatal("resumed campaign output differs from an uninterrupted run")
	}
}

// reliaTestJobs is a small reliability sweep: every protection mode at
// one rate, one workload, one seed, three trials per cell.
func reliaTestJobs() []Job {
	return ReliaJobs([]string{"apache"}, []uint64{11}, []float64{15_000}, 3)
}

// TestReliaParallelismDeterminism is the injection-determinism
// guarantee end to end: the same fault.Plan seeds must produce
// byte-identical injection logs — and therefore identical outcome
// tallies, Wilson intervals and MTTF/FIT rows — whether the campaign
// runs on one worker or NumCPU.
func TestReliaParallelismDeterminism(t *testing.T) {
	jobs := reliaTestJobs()
	seq, rsSeq := summarizeJSON(t, New(Options{Parallel: 1}), jobs)
	par, rsPar := summarizeJSON(t, New(Options{Parallel: runtime.NumCPU()}), jobs)
	if !bytes.Equal(seq, par) {
		t.Fatalf("relia campaign diverges across parallelism:\nseq: %s\npar: %s", seq, par)
	}
	for i := range rsSeq.Results {
		a, b := rsSeq.Results[i].Metrics.Relia, rsPar.Results[i].Metrics.Relia
		if a == nil || b == nil {
			t.Fatalf("job %d missing relia batch", i)
		}
		if a.LogDigest == "" || a.LogDigest != b.LogDigest {
			t.Fatalf("job %d injection logs differ: %q vs %q", i, a.LogDigest, b.LogDigest)
		}
	}
	if !strings.Contains(string(seq), "relia:coverage:") {
		t.Fatal("summary carries no reliability rows")
	}
}

// TestReliaCacheWarmRerun: reliability batches round-trip the result
// cache — a warm rerun hits on every job and reproduces the rows and
// injection-log digests byte for byte.
func TestReliaCacheWarmRerun(t *testing.T) {
	jobs := reliaTestJobs()
	cache, err := NewDiskCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	eng := New(Options{Parallel: runtime.NumCPU(), Cache: cache})
	cold, rs := summarizeJSON(t, eng, jobs)
	if rs.Misses != len(jobs) {
		t.Fatalf("cold run: %d misses, want %d", rs.Misses, len(jobs))
	}
	warm, rs2 := summarizeJSON(t, eng, jobs)
	if rs2.Hits != len(jobs) {
		t.Fatalf("warm run: %d hits, want %d", rs2.Hits, len(jobs))
	}
	if !bytes.Equal(cold, warm) {
		t.Fatal("cache-warm relia rerun not byte-identical")
	}
	for i := range rs.Results {
		a, b := rs.Results[i].Metrics.Relia, rs2.Results[i].Metrics.Relia
		if b == nil || a.LogDigest != b.LogDigest {
			t.Fatalf("job %d digest lost through the cache", i)
		}
	}
}
