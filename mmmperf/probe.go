package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/relia"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// timedCache wraps a campaign cache and times every call into it.
type timedCache struct {
	inner campaign.Cache
	tr    *tracer

	mu     sync.Mutex
	parent int // span the calls nest under
	gets   []float64
	puts   []float64
	hits   int
}

func (c *timedCache) setParent(id int) {
	c.mu.Lock()
	c.parent = id
	c.mu.Unlock()
}

func (c *timedCache) parentSpan() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.parent
}

// Get implements campaign.Cache.
func (c *timedCache) Get(key string) (core.Metrics, bool) {
	var (
		m  core.Metrics
		ok bool
	)
	d := c.tr.timed("campaign.Cache.Get", c.parentSpan(), func() { m, ok = c.inner.Get(key) })
	c.mu.Lock()
	c.gets = append(c.gets, us(d))
	if ok {
		c.hits++
	}
	c.mu.Unlock()
	return m, ok
}

// Put implements campaign.Cache.
func (c *timedCache) Put(key string, m core.Metrics) error {
	var err error
	d := c.tr.timed("campaign.Cache.Put", c.parentSpan(), func() { err = c.inner.Put(key, m) })
	c.mu.Lock()
	c.puts = append(c.puts, us(d))
	c.mu.Unlock()
	return err
}

// hitRatio is the share of Gets served from the cache.
func (c *timedCache) hitRatio() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return ratio(float64(c.hits), float64(len(c.gets)))
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// regen is one timed regeneration of a cached campaign.
type regen struct {
	rs      *campaign.ResultSet
	rows    []stats.Row
	run     time.Duration // NewJournal, Engine.Run and Journal.Finish
	summary time.Duration // Summarize
	cpu     time.Duration // process CPU time of the whole regeneration
	end     time.Time
}

// regenerate runs jobs through a fresh engine on cache with the
// journal on, then summarizes the results: what a re-submitted
// campaign pays when every job is cached.
func regenerate(tr *tracer, cache *timedCache, sc campaign.Scale, jobs []campaign.Job, journalPath string) (regen, error) {
	var (
		g   regen
		err error
	)
	start := cpuTime()
	root := tr.begin("regenerate", 0)
	defer tr.end(root)
	g.run = tr.timed("campaign.Engine.Run", root, func() {
		var j *campaign.Journal
		if j, err = campaign.NewJournal("regen", journalPath); err != nil {
			return
		}
		eng := campaign.New(campaign.Options{Parallel: 2, Cache: cache, Journal: j})
		cache.setParent(root)
		g.rs, err = eng.Run(context.Background(), sc, jobs)
		j.Finish(err)
		if err == nil {
			err = j.Err()
		}
	})
	if err != nil {
		return g, err
	}
	g.summary = tr.timed("campaign.Summarize", root, func() { g.rows = campaign.Summarize(g.rs) })
	g.cpu = cpuTime() - start
	g.end = time.Now()
	return g, nil
}

// sameRows reports whether two row sets are identical field by field
// (floats bit for bit), which is what makes their renderings
// byte-identical.
func sameRows(a, b []stats.Row) bool {
	if len(a) != len(b) {
		return false
	}
	same := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	for i := range a {
		x, y := &a[i], &b[i]
		if x.Key != y.Key || x.Metric != y.Metric || x.N != y.N || !same(x.Mean, y.Mean) ||
			!same(x.CI95, y.CI95) || !same(x.Min, y.Min) || !same(x.Max, y.Max) {
			return false
		}
	}
	return true
}

// journalLayer reports a finished run journal's size and how long
// replaying it takes, and checks that the replay renders want.
func journalLayer(r *report, path string, want []stats.Row) error {
	info, err := os.Stat(path)
	if err != nil {
		return err
	}
	var replays []float64
	var problem string
	for i := 0; i < 3; i++ {
		start := time.Now()
		events, err := campaign.ReadJournalFile(path)
		if err != nil {
			return err
		}
		rs, err := campaign.ReplayResults(events)
		if err != nil {
			return err
		}
		replays = append(replays, ms(time.Since(start)))
		r.set("campaign.journal_events", float64(len(events)))
		if !sameRows(campaign.Summarize(rs), want) {
			problem = "journal replay renders different rows than the run"
		}
	}
	r.op(problem)
	r.set("campaign.journal_kb", float64(info.Size())/1024)
	r.set("campaign.journal_replay_ms", median(replays))
	return nil
}

// campaignProbe measures the campaign layer on steady-sim's results,
// which the workload itself never caches: the cells' metrics are put
// in a fresh disk cache under their job fingerprints, then regenerated
// with every job a hit.
func campaignProbe(e *env, r *report, jobs []campaign.Job, results []core.Metrics) error {
	sc := campaign.QuickScale()
	dc, err := campaign.NewDiskCache(filepath.Join(e.work, "probe-cache"))
	if err != nil {
		return err
	}
	cache := &timedCache{inner: dc}
	for i, j := range jobs {
		if err := cache.Put(j.Fingerprint(sc), results[i]); err != nil {
			return err
		}
	}
	journal := filepath.Join(e.work, "probe-journal.jsonl")
	var runs, sums []float64
	var last regen
	for i := 0; i < 5; i++ {
		if last, err = regenerate(nil, cache, sc, jobs, journal); err != nil {
			return err
		}
		problem := ""
		if last.rs.Hits != len(jobs) {
			problem = fmt.Sprintf("campaign probe: %d of %d jobs hit the cache", last.rs.Hits, len(jobs))
		}
		r.op(problem)
		runs = append(runs, ms(last.run))
		sums = append(sums, ms(last.summary))
	}
	r.set("campaign.run_hits_ms", median(runs))
	r.set("campaign.summarize_ms", median(sums))
	r.set("campaign.cache_get_us", median(cache.gets))
	r.set("campaign.cache_put_us", median(cache.puts))
	r.set("campaign.cache_hit_ratio", cache.hitRatio())
	return journalLayer(r, journal, last.rows)
}

// trialSpec is global trial g of an adaptive relia cell, specified the
// way the campaign engine specifies a wave job's trials: windows from
// the cell's reference batch shape, the cell's knobs, and the trial
// seed relia.RunBatch derives from the global trial index.
func trialSpec(job campaign.Job, sc campaign.Scale, g int) (relia.TrialSpec, error) {
	wl, err := workload.ByName(job.Workload)
	if err != nil {
		return relia.TrialSpec{}, err
	}
	var kinds []fault.Kind
	if job.Knobs.FaultKinds != "" {
		for _, name := range strings.Split(job.Knobs.FaultKinds, ",") {
			k, err := fault.KindByName(strings.TrimSpace(name))
			if err != nil {
				return relia.TrialSpec{}, err
			}
			kinds = append(kinds, k)
		}
	}
	warmup, measure, timeslice := relia.TrialWindows(sc.Warmup, sc.Measure, campaign.DefaultReliaTrials)
	cfg := sim.DefaultConfig()
	job.Knobs.Apply(cfg)
	return relia.TrialSpec{
		Kind:         job.Kind,
		Workload:     wl,
		Config:       cfg,
		Policy:       job.Knobs.Policy,
		Seed:         sim.DeriveSeed(job.SimSeed(), "relia-trial", strconv.Itoa(g)),
		Kinds:        kinds,
		MeanInterval: job.Knobs.FaultInterval,
		Warmup:       warmup,
		Measure:      measure,
		Timeslice:    timeslice,
		ForcePAB:     job.Knobs.ForcePAB,
		PABDisabled:  job.Knobs.PABDisabled,
	}, nil
}

// trialPhases is one re-enacted trial.
type trialPhases struct {
	construct, warmup, measure, classify, collect time.Duration
	// sum is the host time of every re-enacted step but Collect,
	// which relia.RunTrial does not call.
	sum     time.Duration
	result  relia.TrialResult
	metrics core.Metrics
}

// reenactTrial runs relia.RunTrial's steps one public call at a time:
// NewSystem, warmup Run, Attach, NewInjector and Rebase, measured Run,
// Classify and Release. It also collects the chip's counters over the
// whole trial, which RunTrial does not; Collect only settles counters.
func reenactTrial(tr *tracer, parent int, spec relia.TrialSpec) (trialPhases, error) {
	var p trialPhases
	cfg := *spec.Config
	cfg.TimesliceCycles = spec.Timeslice
	var (
		chip *core.Chip
		err  error
	)
	p.construct = tr.cpuTimed("core.NewSystem", parent, func() {
		chip, err = core.NewSystem(core.Options{Cfg: &cfg, Kind: spec.Kind, Workload: spec.Workload,
			Seed: spec.Seed, Policy: spec.Policy, ForcePAB: spec.ForcePAB, PABDisabled: spec.PABDisabled})
	})
	if err != nil {
		return p, err
	}
	p.warmup = tr.cpuTimed("core.Chip.Run warmup", parent, func() { chip.Run(spec.Warmup) })
	var (
		cls *relia.Classifier
		inj *fault.Injector
	)
	p.measure = tr.cpuTimed("trial.measure", parent, func() {
		cls = relia.Attach(chip)
		// The injector seed salt is relia.RunTrial's; the record
		// comparison in trialProbe fails if the two ever diverge.
		inj = fault.NewInjector(fault.Plan{MeanInterval: spec.MeanInterval, Kinds: spec.Kinds,
			Cores: spec.Cores, MaxFaults: spec.MaxFaults, Seed: spec.Seed ^ 0x51a17})
		inj.Rebase(chip.Now)
		chip.Injector = inj
		chip.Run(spec.Measure)
	})
	p.collect = tr.cpuTimed("core.Chip.Collect", parent, func() { p.metrics = chip.Collect(chip.Now) })
	var recs []relia.Record
	p.classify = tr.cpuTimed("relia.Classifier.Classify", parent, func() { recs = cls.Classify(inj.Log, &cfg) })
	release := tr.cpuTimed("core.Chip.Release", parent, chip.Release)
	p.sum = p.construct + p.warmup + p.measure + p.classify + release
	p.result = relia.TrialResult{Records: recs, Misses: inj.Misses, Log: inj.Log}
	return p, nil
}

// probeResult is what the trial-phase probe measured.
type probeResult struct {
	construct, warmup, collect []float64 // per re-enacted trial, ms / ms / us
	metrics                    []core.Metrics
}

// probeTrials is how many trials of each relia-adaptive cell the
// trial-phase probe times: 24 in all, enough for a steady median gap.
const probeTrials = 2

// trialProbe times the phases of the first trials of every
// relia-adaptive cell in process CPU time. Each trial runs twice,
// through relia.RunTrial and re-enacted call by call, in alternating
// order so that cache warmth favors neither; the records must match,
// and phase_gap_pct is the share of RunTrial's CPU time the phases do
// not account for.
func trialProbe(e *env, r *report) (probeResult, error) {
	var out probeResult
	sc := campaign.QuickScale()
	cells, err := reliaCells(e.seed)
	if err != nil {
		return out, err
	}
	tr := e.tr
	var measure, classify, gaps []float64
	for i := 0; i < len(cells)*probeTrials; i++ {
		job := cells[i/probeTrials]
		spec, err := trialSpec(job, sc, i%probeTrials)
		if err != nil {
			return out, err
		}
		var (
			ref    relia.TrialResult
			refCPU time.Duration
			p      trialPhases
			runErr error
		)
		runTrial := func() {
			refCPU = tr.cpuTimed("relia.RunTrial", 0, func() { ref, runErr = relia.RunTrial(spec) })
		}
		reenact := func() {
			if runErr == nil {
				p, runErr = reenactTrial(tr, 0, spec)
			}
		}
		if i%2 == 0 {
			runTrial()
			reenact()
		} else {
			reenact()
			runTrial()
		}
		if runErr != nil {
			return out, fmt.Errorf("trial probe %s: %w", job.Key(), runErr)
		}
		problem := ""
		if !reflect.DeepEqual(ref, p.result) {
			problem = "trial probe " + job.Key() + ": re-enacted trial differs from relia.RunTrial"
		}
		r.op(problem)
		out.construct = append(out.construct, ms(p.construct))
		out.warmup = append(out.warmup, ms(p.warmup))
		out.collect = append(out.collect, us(p.collect))
		out.metrics = append(out.metrics, p.metrics)
		measure = append(measure, ms(p.measure))
		classify = append(classify, us(p.classify))
		gaps = append(gaps, 100*(refCPU.Seconds()-p.sum.Seconds())/refCPU.Seconds())
	}
	r.set("relia.trial.construct_ms", median(out.construct))
	r.set("relia.trial.warmup_ms", median(out.warmup))
	r.set("relia.trial.measure_ms", median(measure))
	r.set("relia.trial.classify_us", median(classify))
	r.set("relia.trial.phase_gap_pct", median(gaps))
	return out, nil
}

// simLayers reports the simulated per-layer counters summed over results.
func simLayers(r *report, results []core.Metrics) {
	var (
		c                          stats.CoreCounters
		h                          stats.CacheCounters
		insts, checks, mism        float64
		pabChecks, pabMiss, pabExc float64
		enterN, leaveN, ctxN       float64
		enterCyc, leaveCyc         float64
	)
	for i := range results {
		m := &results[i]
		c.Add(&m.Core)
		h.Add(&m.Cache)
		insts += float64(archInsts(m))
		checks += float64(m.Checks)
		mism += float64(m.Mismatches)
		pabChecks += float64(m.PABChecks)
		pabMiss += float64(m.PABMisses)
		pabExc += float64(m.PABExceptions)
		enterN += float64(m.EnterN)
		leaveN += float64(m.LeaveN)
		ctxN += float64(m.CtxN)
		enterCyc += m.EnterAvg * float64(m.EnterN)
		leaveCyc += m.LeaveAvg * float64(m.LeaveN)
	}
	cycles := float64(c.Cycles)
	// Per-kinst rates divide by instructions committed on any core, DMR
	// duplicates included, because both cores of a pair do the work.
	kinst := float64(c.Commits) / 1e3
	r.set("core.enter_n", enterN)
	r.set("core.leave_n", leaveN)
	r.set("core.ctx_n", ctxN)
	r.set("core.enter_avg_cyc", ratio(enterCyc, enterN))
	r.set("core.leave_avg_cyc", ratio(leaveCyc, leaveN))
	r.set("cpu.kinst", insts/1e3)
	r.set("cpu.user_ipc", ratio(float64(c.UserCommits), cycles))
	r.set("cpu.window_full_frac", ratio(float64(c.WindowFullCycles), cycles))
	r.set("cpu.si_stall_frac", ratio(float64(c.SIStallCycles), cycles))
	r.set("cpu.fetch_stall_frac", ratio(float64(c.FetchStallCycles), cycles))
	r.set("cpu.idle_frac", ratio(float64(c.IdleCycles), cycles))
	r.set("cache.l1_miss_rate", ratio(float64(h.L1Misses), float64(h.L1Hits+h.L1Misses)))
	r.set("cache.l2_miss_rate", ratio(float64(h.L2Misses), float64(h.L2Hits+h.L2Misses)))
	r.set("cache.c2c_per_kinst", ratio(float64(h.C2CTransfers), kinst))
	r.set("cache.mem_per_kinst", ratio(float64(h.MemAccesses), kinst))
	r.set("cache.inval_per_kinst", ratio(float64(h.Invalidations), kinst))
	r.set("cache.flushed_lines", float64(h.FlushedLines))
	r.set("paging.tlb_miss_per_kinst", ratio(float64(c.TLBMisses), kinst))
	r.set("reunion.checks_per_kinst", ratio(checks, kinst))
	r.set("reunion.check_wait_frac", ratio(float64(c.CheckWaitCycles), cycles))
	r.set("reunion.mismatches", mism)
	r.set("pab.checks_per_kinst", ratio(pabChecks, kinst))
	r.set("pab.miss_rate", ratio(pabMiss, pabChecks))
	r.set("pab.exceptions", pabExc)
}
