package campaign

import (
	"context"
	"math"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/core"
)

// warmMetrics is a synthetic result for the i-th job, shaped like a
// performance cell's: two guest buckets and nonzero counters.
func warmMetrics(i int, j Job) core.Metrics {
	n := uint64(i + 1)
	m := core.Metrics{
		Kind:       j.Kind,
		Workload:   j.Workload,
		Cycles:     300_000,
		GuestUser:  map[string]uint64{"perf": 800_000 + n, "rel": 400_000 + n},
		GuestOS:    map[string]uint64{"perf": 200_000 + n, "rel": 100_000 + n},
		GuestVCPUs: map[string]int{"perf": 8, "rel": 8},
		EnterN:     12 * n,
		EnterAvg:   1234.5 + float64(n),
		Checks:     123_456 * n,
	}
	m.Core.Commits = 1_000_000 * n
	m.Cache.L1Misses = 20_000 * n
	return m
}

// warmCache is a cache holding warmMetrics under every job's
// fingerprint at sc: a run of the jobs against it is all hits and
// simulates nothing.
func warmCache(tb testing.TB, sc Scale, jobs []Job) *MemCache {
	tb.Helper()
	cache := NewMemCache()
	for i, j := range jobs {
		if err := cache.Put(j.Fingerprint(sc), warmMetrics(i, j)); err != nil {
			tb.Fatal(err)
		}
	}
	return cache
}

// raceEnabled reports a build with the race detector (race_test.go).
var raceEnabled bool

// figure5Jobs is the Figure 5 sweep over its default workloads and
// seeds: 36 cells.
func figure5Jobs(tb testing.TB) []Job {
	tb.Helper()
	spec, err := Named("figure5", nil, nil)
	if err != nil {
		tb.Fatal(err)
	}
	jobs, err := spec.Expand()
	if err != nil {
		tb.Fatal(err)
	}
	return jobs
}

// TestWarmRegenAllocations bounds what an all-hit regeneration
// allocates per cell: a run with a file journal, then Summarize, as
// mmmbench and mmmd re-submissions pay it. Each cell's result, journal
// events and rows are allocated once. Copying a cell's Metrics again
// (576 bytes), or growing the history, the rows or the journal's write
// buffer one append at a time, passes the byte bound. Bytes are the
// fewest of several runs, so a garbage collection that empties the
// buffer pool does not count.
func TestWarmRegenAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes what a run allocates")
	}
	// Measured (go1.24): 31.9 objects and 3,823 bytes per cell, so the
	// bounds leave about 7% and 12%.
	const perCell, perCellBytes = 34, 4300
	sc := QuickScale()
	jobs := figure5Jobs(t)
	cache := warmCache(t, sc, jobs)
	path := filepath.Join(t.TempDir(), "regen.journal.jsonl")
	regen := func() {
		j, err := NewJournal("regen", path)
		if err != nil {
			t.Fatal(err)
		}
		rs, err := New(Options{Parallel: 2, Cache: cache, Journal: j}).Run(context.Background(), sc, jobs)
		j.Finish(err)
		if err == nil {
			err = j.Err()
		}
		if err != nil {
			t.Fatal(err)
		}
		if rs.Hits != len(jobs) {
			t.Fatalf("%d of %d jobs hit the cache", rs.Hits, len(jobs))
		}
		if rows := Summarize(rs); len(rows) == 0 {
			t.Fatal("no rows")
		}
	}
	const runs = 20
	objects := testing.AllocsPerRun(runs, regen) / float64(len(jobs))
	fewest := uint64(math.MaxUint64)
	var ms runtime.MemStats
	for range runs {
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		regen()
		runtime.ReadMemStats(&ms)
		fewest = min(fewest, ms.TotalAlloc-before)
	}
	bytes := float64(fewest) / float64(len(jobs))
	t.Logf("%.1f objects, %.0f bytes per cell", objects, bytes)
	if objects > perCell {
		t.Errorf("warm regeneration allocated %.1f objects per cell, want at most %d", objects, perCell)
	}
	if bytes > perCellBytes {
		t.Errorf("warm regeneration allocated %.0f bytes per cell, want at most %d", bytes, perCellBytes)
	}
}
