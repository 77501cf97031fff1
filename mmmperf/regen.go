package main

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/campaign"
	"repro/internal/stats"
)

// regenCampaigns are the registered campaigns warm-regen regenerates:
// every one but the reliability campaigns, whose trials belong to
// relia-adaptive.
var regenCampaigns = []string{
	"figure5", "figure6", "table1", "table2", "pab", "singleos", "tso", "flush", "faults", "policy",
}

// regenJobs expands regenCampaigns for the apache and pmake mixes.
// Campaigns share some cells (policy's static baseline is figure6's
// MMM-IPC cell, for one); each cell is kept once, so the cold pass
// simulates every job exactly once whatever the worker interleaving.
func regenJobs(seed uint64) ([]campaign.Job, error) {
	var jobs []campaign.Job
	seen := make(map[string]bool)
	for _, name := range regenCampaigns {
		spec, err := campaign.Named(name, []string{"apache", "pmake"}, []uint64{seed})
		if err != nil {
			return nil, err
		}
		js, err := spec.Expand()
		if err != nil {
			return nil, err
		}
		for _, j := range js {
			if fp := j.Fingerprint(campaign.QuickScale()); !seen[fp] {
				seen[fp] = true
				jobs = append(jobs, j)
			}
		}
	}
	return jobs, nil
}

// regenPerSecond sizes the measured work: regenerations per nominal
// second, so a run measures about --seconds on the reference box.
const regenPerSecond = 200

// regenCalibEvery is how many steps run between two calibration chunks:
// about 0.3 s of regenerations.
const regenCalibEvery = 4

// regenBatch is how many back-to-back regenerations make one step. A
// regeneration allocates about 0.8 MB, so a garbage collection lands in
// roughly one of twenty and charges its whole CPU cost to that one: per
// single regeneration, the tail percentile would measure the collector's
// timing. A batch spreads each collection over the regenerations that
// caused it.
const regenBatch = 10

// runRegen is the warm-regen workload: the campaign layer's read path,
// what a re-submitted campaign pays. Set-up is a cold run of the jobs
// into a fresh disk cache. A unit of work is one regeneration
// (Engine.Run with every job a hit, with the journal on, then
// Summarize); a step is a batch of regenBatch of them, timed per
// regeneration. Host times are scaled by the speed factor of the
// calibration chunks around them: one after every cold job, one after
// every regenCalibEvery steps.
func runRegen(e *env, r *report) error {
	sc := campaign.QuickScale()
	start := cpuTime()
	jobs, err := regenJobs(e.seed)
	if err != nil {
		return err
	}
	dc, err := campaign.NewDiskCache(filepath.Join(e.work, "cache"))
	if err != nil {
		return err
	}
	cache := &timedCache{inner: dc}
	var (
		mu      sync.Mutex
		coldJob []float64
	)
	cold, err := campaign.New(campaign.Options{Parallel: 2, Cache: cache,
		OnJobTime: func(d time.Duration) {
			mu.Lock()
			coldJob = append(coldJob, d.Seconds())
			e.cal.sample()
			mu.Unlock()
		}}).Run(context.Background(), sc, jobs)
	if err != nil {
		return fmt.Errorf("cold pass: %w", err)
	}
	want := campaign.Summarize(cold)
	r.set("setup_s", (cpuTime()-start-e.cal.spent).Seconds()*e.cal.factor())
	problem := ""
	if cold.Misses != len(jobs) {
		problem = fmt.Sprintf("cold pass: %d of %d jobs simulated", cold.Misses, len(jobs))
	}
	r.op(problem)
	got := make(map[string]float64)
	rowReference(got, want, "tp:total", "enter_n", "checks", "faults_injected", "ipc:")
	if err := e.reference(r, got); err != nil {
		return err
	}

	n := e.seconds * regenPerSecond
	journal := filepath.Join(e.work, "journal.jsonl")
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cache.gets, cache.hits = nil, 0
	untraced, wall, err := regenLoop(r, nil, e.cal, cache, sc, jobs, journal, want, n)
	if err != nil {
		return err
	}
	runtime.ReadMemStats(&ms1)
	var (
		steps       []float64
		cpu, scaled float64 // s
	)
	for i := 0; i+regenBatch <= len(untraced); i += regenBatch {
		var batch time.Duration
		for _, g := range untraced[i : i+regenBatch] {
			batch += g.cpu
		}
		f := e.cal.factorAt(untraced[i+regenBatch-1].end)
		steps = append(steps, ms(batch)/regenBatch*f)
		cpu += batch.Seconds()
		scaled += batch.Seconds() * f
	}
	r.set("work_per_cpu_s", float64(n)/scaled)
	r.set("step_ms_p50", median(steps))
	r.set("step_ms_tail", percentile(steps, tailPercentile(len(steps))))
	if !e.traced {
		return nil
	}

	r.set("host.alloc_mb", float64(ms1.TotalAlloc-ms0.TotalAlloc)/(1<<20))
	r.set("host.wall_s", wall.Seconds())
	r.set("host.cpu_per_wall", cpu/wall.Seconds())
	var runs, sums []float64
	for _, g := range untraced {
		runs = append(runs, ms(g.run))
		sums = append(sums, ms(g.summary))
	}
	r.set("campaign.run_hits_ms", median(runs))
	r.set("campaign.summarize_ms", median(sums))
	r.set("campaign.cache_get_us", median(cache.gets))
	r.set("campaign.cache_put_us", median(cache.puts))
	r.set("campaign.cache_hit_ratio", cache.hitRatio())
	r.set("campaign.job_s_p50", median(coldJob))
	if err := journalLayer(r, journal, want); err != nil {
		return err
	}

	tracedWall, err := e.profiled(r, func(tr *tracer) error {
		traced := &timedCache{inner: dc, tr: tr}
		_, _, err := regenLoop(r, tr, e.cal, traced, sc, jobs, journal, want, n)
		return err
	})
	if err != nil {
		return err
	}
	r.set("host.trace_overhead_pct", overheadPct(tracedWall, wall))

	probe, err := trialProbe(e, r)
	if err != nil {
		return err
	}
	r.set("core.construct_ms", median(probe.construct))
	r.set("core.warmup_ms", median(probe.warmup))
	r.set("core.collect_us", median(probe.collect))
	return nil
}

// regenLoop runs n back-to-back regenerations, checking each against
// the cold pass's rows, and returns them with their total host time.
// With a calibrator, a calibration chunk follows every regenCalibEvery
// steps.
func regenLoop(r *report, tr *tracer, cal *calibrator, cache *timedCache, sc campaign.Scale, jobs []campaign.Job,
	journal string, want []stats.Row, n int) ([]regen, time.Duration, error) {
	out := make([]regen, 0, n)
	var wall time.Duration
	for i := 0; i < n; i++ {
		g, err := regenerate(tr, cache, sc, jobs, journal)
		if err != nil {
			return nil, 0, err
		}
		wall += g.run + g.summary
		problem := ""
		if g.rs.Hits != len(jobs) {
			problem = fmt.Sprintf("regeneration %d: %d of %d jobs hit the cache", i, g.rs.Hits, len(jobs))
		} else if !sameRows(g.rows, want) {
			problem = fmt.Sprintf("regeneration %d: rows differ from the cold pass", i)
		}
		r.op(problem)
		g.rs, g.rows = nil, nil
		out = append(out, g)
		if cal != nil && (i+1)%(regenBatch*regenCalibEvery) == 0 {
			cal.sample()
		}
	}
	return out, wall, nil
}
