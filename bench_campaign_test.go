// Campaign-engine benchmarks: the cost of a sweep through the engine
// cold (every job simulates) versus warm (every job served from the
// content-addressed cache). The warm path is what repeated figure
// regeneration and mmmd re-submissions pay.
package repro

import (
	"context"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/campaign"
)

// benchJobs is the Figure 5 sweep on one workload and seed.
func benchJobs(b *testing.B) []campaign.Job {
	spec, err := campaign.Named("figure5", []string{"apache"}, []uint64{11})
	if err != nil {
		b.Fatal(err)
	}
	jobs, err := spec.Expand()
	if err != nil {
		b.Fatal(err)
	}
	return jobs
}

func benchScale() campaign.Scale {
	return campaign.Scale{Warmup: 60_000, Measure: 120_000, Timeslice: 40_000}
}

// BenchmarkCampaignCold measures the engine with no cache: every
// iteration simulates the full job set.
func BenchmarkCampaignCold(b *testing.B) {
	jobs := benchJobs(b)
	eng := campaign.New(campaign.Options{Parallel: runtime.NumCPU()})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Run(context.Background(), benchScale(), jobs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCampaignWarm measures the same sweep against a warm disk
// cache: job expansion, fingerprinting, cache reads, a journal file and
// aggregation, but no simulation — what a regeneration from cached
// cells pays.
func BenchmarkCampaignWarm(b *testing.B) {
	jobs := benchJobs(b)
	dir := b.TempDir()
	cache, err := campaign.NewDiskCache(filepath.Join(dir, "cache"))
	if err != nil {
		b.Fatal(err)
	}
	if _, err := campaign.New(campaign.Options{Parallel: runtime.NumCPU(), Cache: cache}).
		Run(context.Background(), benchScale(), jobs); err != nil {
		b.Fatal(err)
	}
	journal := filepath.Join(dir, "warm.journal.jsonl")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j, err := campaign.NewJournal("warm", journal)
		if err != nil {
			b.Fatal(err)
		}
		rs, err := campaign.New(campaign.Options{Parallel: runtime.NumCPU(), Cache: cache, Journal: j}).
			Run(context.Background(), benchScale(), jobs)
		j.Finish(err)
		if err == nil {
			err = j.Err()
		}
		if err != nil {
			b.Fatal(err)
		}
		if rs.Hits != len(jobs) {
			b.Fatalf("warm run missed: %d/%d", rs.Hits, len(jobs))
		}
		if rows := campaign.Summarize(rs); len(rows) == 0 {
			b.Fatal("no rows")
		}
	}
}
