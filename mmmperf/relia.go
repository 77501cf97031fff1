package main

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/relia"
)

// reliaWaveTrials is the campaign's wave size: a third of the default,
// so that every cell's wave times are sampled by several waves (2 to 24
// per cell; ~170 in all) for the cell-weighted tail (cellPercentile).
const reliaWaveTrials = 4

// reliaSpec is the relia-adaptive workload's campaign: the registered
// relia-adaptive campaign on the apache column at quick scale, with a
// ±0.10 target so that some cells retire on target and others cap.
func reliaSpec(seed uint64) campaign.Spec {
	spec, err := campaign.Named("relia-adaptive", []string{"apache"}, []uint64{seed})
	if err != nil {
		// The name is registered in internal/campaign; failing to find it
		// is a build-time mismatch, not an input error.
		panic(err)
	}
	spec.Precision = &campaign.Precision{HalfWidth: 0.10, WaveTrials: reliaWaveTrials}
	return spec
}

// reliaCells are the campaign's cells in expansion order.
func reliaCells(seed uint64) ([]campaign.Job, error) {
	return reliaSpec(seed).Expand()
}

// reliaRun is one execution of the relia-adaptive campaign.
type reliaRun struct {
	rs      *campaign.ResultSet
	wall    time.Duration
	cpu     time.Duration // process CPU time of the campaign
	waves   []interval    // simulated wave jobs, in completion order
	waveCPU []float64     // each wave job's share of the CPU time, ms
	cache   *timedCache
	dir     string
	journal string
}

// reliaWorkers is the engine's worker count. One worker, although the
// box has two vCPUs: interleaved runs with two workers spread two to
// four times wider in CPU per trial, because the box's co-tenants slow
// a second busy vCPU far more than a lone one, and the garbage collector
// still gets the second vCPU to itself.
const reliaWorkers = 1

// runCampaign executes the campaign through campaign.RunSpec on a
// reliaWorkers engine with a fresh disk cache and a file journal. With a
// calibrator, a calibration chunk follows every second wave job.
func runCampaign(e *env, tr *tracer, cal *calibrator, name string) (*reliaRun, error) {
	run := &reliaRun{dir: filepath.Join(e.work, name)}
	dc, err := campaign.NewDiskCache(filepath.Join(run.dir, "cache"))
	if err != nil {
		return nil, err
	}
	run.cache = &timedCache{inner: dc, tr: tr}
	run.journal = filepath.Join(run.dir, "journal.jsonl")
	return run, run.exec(e.seed, tr, cal)
}

// exec runs the campaign on the run's cache with a new journal.
func (run *reliaRun) exec(seed uint64, tr *tracer, cal *calibrator) error {
	j, err := campaign.NewJournal(filepath.Base(run.dir), run.journal)
	if err != nil {
		return err
	}
	var mu sync.Mutex
	run.waves = run.waves[:0]
	eng := campaign.New(campaign.Options{Parallel: reliaWorkers, Cache: run.cache, Journal: j,
		OnJobTime: func(d time.Duration) {
			end := time.Now()
			mu.Lock()
			run.waves = append(run.waves, interval{start: end.Add(-d), end: end})
			// OnJobTime runs on the worker: the chunk runs between
			// waves, outside every wave's interval.
			if cal != nil && len(run.waves)%2 == 0 {
				cal.sample()
			}
			mu.Unlock()
		}})
	root := tr.begin("campaign.RunSpec", 0)
	run.cache.setParent(root)
	var spent time.Duration
	if cal != nil {
		spent = cal.spent
	}
	sampler := startCPUSampler()
	start := time.Now()
	run.rs, err = campaign.RunSpec(context.Background(), eng, campaign.QuickScale(), reliaSpec(seed))
	run.wall = time.Since(start)
	sampler.stop()
	run.cpu = sampler.total()
	if cal != nil {
		run.cpu -= cal.spent - spent
	}
	run.waveCPU = sampler.shares(run.waves)
	tr.end(root)
	j.Finish(err)
	if err != nil {
		return fmt.Errorf("relia-adaptive campaign: %w", err)
	}
	return j.Err()
}

// trials is the number of Monte Carlo trials the campaign ran.
func (run *reliaRun) trials() int {
	n := 0
	for _, res := range run.rs.Results {
		if res.Metrics.Relia != nil {
			n += res.Metrics.Relia.Trials
		}
	}
	return n
}

// reliaSetupReps is how many times relia-adaptive repeats its set-up;
// setup_s is the median.
const reliaSetupReps = 7

// reliaSetup is the workload's set-up: one chip per protection mode
// built and warmed at the trial windows, so the timed campaign does not
// pay first-touch page faults and heap growth.
func reliaSetup(e *env) error {
	cells, err := reliaCells(e.seed)
	if err != nil {
		return err
	}
	seen := make(map[string]bool)
	for _, job := range cells {
		mode := job.Kind.String() + "/" + job.Knobs.Policy
		if seen[mode] {
			continue
		}
		seen[mode] = true
		spec, err := trialSpec(job, campaign.QuickScale(), 0)
		if err != nil {
			return err
		}
		cfg := *spec.Config
		cfg.TimesliceCycles = spec.Timeslice
		chip, err := core.NewSystem(core.Options{Cfg: &cfg, Kind: spec.Kind, Workload: spec.Workload,
			Seed: spec.Seed, Policy: spec.Policy, ForcePAB: spec.ForcePAB, PABDisabled: spec.PABDisabled})
		if err != nil {
			return err
		}
		chip.Run(spec.Warmup)
		chip.Release()
	}
	return nil
}

// runRelia is the relia-adaptive workload: where set-up and the
// protection layers do their work. A step is one wave job; a unit of
// work is one Monte Carlo trial. Host times are scaled by the speed
// factor at the set-up or wave they measure.
func runRelia(e *env, r *report) error {
	var setups []float64
	var setupEnds []time.Time
	for i := 0; i < reliaSetupReps; i++ {
		start := cpuTime()
		if err := reliaSetup(e); err != nil {
			return err
		}
		setups = append(setups, (cpuTime() - start).Seconds())
		setupEnds = append(setupEnds, time.Now())
		e.cal.sample()
	}
	runtime.GC()

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	run, err := runCampaign(e, nil, e.cal, "untraced")
	if err != nil {
		return err
	}
	runtime.ReadMemStats(&ms1)
	for i, t := range setupEnds {
		setups[i] *= e.cal.factorAt(t)
	}
	// Each wave's CPU time is scaled by the factor at its end; the
	// campaign's CPU time outside its waves (planning, cache writes,
	// journal) by the run's median factor.
	waves := make([]float64, len(run.waveCPU))
	var inWaves float64
	for i, w := range run.waves {
		waves[i] = run.waveCPU[i] * e.cal.factorAt(w.end)
		inWaves += run.waveCPU[i]
	}
	cpu := (sum(waves) + (ms(run.cpu)-inWaves)*e.cal.factor()) / 1e3
	events, err := campaign.ReadJournalFile(run.journal)
	if err != nil {
		return err
	}
	cells := waveCells(events)
	if len(cells) != len(waves) {
		return fmt.Errorf("relia-adaptive: journal completed %d waves, engine timed %d", len(cells), len(waves))
	}
	r.set("setup_s", median(setups))
	r.set("work_per_cpu_s", float64(run.trials())/cpu)
	r.set("step_ms_p50", median(waves))
	r.set("step_ms_tail", cellPercentile(waves, cells, tailPercentile(len(waves))))
	rep := campaign.Attribute("relia-adaptive", events)
	reliaChecks(r, run, events, rep)
	rows := campaign.Summarize(run.rs)
	got := make(map[string]float64)
	for _, res := range run.rs.Results {
		if res.Metrics.Relia != nil {
			got[res.Job.Key()+"|trials"] = float64(res.Metrics.Relia.Trials)
		}
	}
	rowReference(got, rows, "relia:coverage:", "relia:sdc:")
	if err := e.reference(r, got); err != nil {
		return err
	}
	if !e.traced {
		return nil
	}

	tracedWall, err := e.profiled(r, func(tr *tracer) error {
		_, err := runCampaign(e, tr, e.cal, "traced")
		return err
	})
	if err != nil {
		return err
	}
	r.set("host.trace_overhead_pct", overheadPct(tracedWall, run.wall))
	r.set("host.alloc_mb", float64(ms1.TotalAlloc-ms0.TotalAlloc)/(1<<20))
	r.set("host.wall_s", run.wall.Seconds())
	r.set("host.cpu_per_wall", run.cpu.Seconds()/run.wall.Seconds())

	r.set("relia.trials", float64(rep.TrialsScheduled))
	r.set("relia.cells_retired", float64(rep.CellsRetired))
	r.set("relia.cells_capped", float64(rep.CellsCapped))
	r.set("relia.trials_saved_pct", rep.TrialsSavedPct)
	var injected, misses float64
	for _, res := range run.rs.Results {
		if b := res.Metrics.Relia; b != nil {
			injected += float64(relia.TotalInjected(b))
			misses += float64(b.Misses)
		}
	}
	r.set("fault.injected", injected)
	r.set("fault.hit_ratio", ratio(injected, injected+misses))

	r.set("campaign.cache_get_us", median(run.cache.gets))
	r.set("campaign.cache_put_us", median(run.cache.puts))
	r.set("campaign.cache_hit_ratio", run.cache.hitRatio())
	var waveWall []float64
	for _, w := range run.waves {
		waveWall = append(waveWall, w.end.Sub(w.start).Seconds())
	}
	r.set("campaign.job_s_p50", median(waveWall))
	var sums []float64
	for i := 0; i < 5; i++ {
		start := time.Now()
		campaign.Summarize(run.rs)
		sums = append(sums, ms(time.Since(start)))
	}
	r.set("campaign.summarize_ms", median(sums))
	if err := journalLayer(r, run.journal, rows); err != nil {
		return err
	}
	// A warm resubmission on the same cache: every wave is a hit.
	var hits []float64
	for i := 0; i < 3; i++ {
		if err := run.exec(e.seed, nil, nil); err != nil {
			return err
		}
		problem := ""
		if run.rs.Misses != 0 || !sameRows(campaign.Summarize(run.rs), rows) {
			problem = fmt.Sprintf("warm resubmission simulated %d waves or changed rows", run.rs.Misses)
		}
		r.op(problem)
		hits = append(hits, ms(run.wall))
	}
	r.set("campaign.run_hits_ms", median(hits))

	probe, err := trialProbe(e, r)
	if err != nil {
		return err
	}
	r.set("core.construct_ms", median(probe.construct))
	r.set("core.warmup_ms", median(probe.warmup))
	r.set("core.collect_us", median(probe.collect))
	simLayers(r, probe.metrics)
	return nil
}

// reliaChecks checks the campaign's results and journal: one operation
// per cell, plus one for the journal as a whole.
func reliaChecks(r *report, run *reliaRun, events []campaign.Event, rep campaign.Report) {
	prec := reliaSpec(0).Precision.Normalized()
	for _, res := range run.rs.Results {
		b := res.Metrics.Relia
		switch {
		case b == nil:
			r.op(res.Job.Key() + ": no reliability batch")
		case b.Trials < prec.MinTrials || b.Trials > prec.MaxTrials:
			r.op(fmt.Sprintf("%s: %d trials outside [%d, %d]", res.Job.Key(), b.Trials, prec.MinTrials, prec.MaxTrials))
		default:
			r.op()
		}
	}
	var problems []string
	chk, err := campaign.ValidateEvents(events)
	if err != nil {
		problems = append(problems, "journal: "+err.Error())
	} else if !chk.Complete {
		problems = append(problems, fmt.Sprintf("journal merged %d of %d cells", chk.Merged, chk.Total))
	}
	if rep.CellsRetired != len(run.rs.Results) || rep.TrialsScheduled != run.trials() {
		problems = append(problems, fmt.Sprintf("attribution: %d cells retired, %d trials scheduled; want %d, %d",
			rep.CellsRetired, rep.TrialsScheduled, len(run.rs.Results), run.trials()))
	}
	r.op(problems...)
}

// waveCells maps the campaign's simulated wave jobs, in completion
// order, to their cells' indices. With one engine worker the journal
// records completions in the order OnJobTime reported them.
func waveCells(events []campaign.Event) []int {
	var cells []int
	for _, ev := range events {
		if ev.Type == campaign.EventCompleted {
			cells = append(cells, ev.Cell)
		}
	}
	return cells
}

// cellPercentile is the nearest-rank percentile p of xs in which the
// samples of each cell (cells[i] is xs[i]'s) together weigh the same.
// Cells differ in cost by protection mode, and how many waves sequential
// stopping gives each cell varies from seed to seed: counted per wave,
// a tail percentile jumps between cost tiers as that mix shifts (a
// quartile spread of 0.15-0.19 over seeds); weighted per cell, it stays
// inside one cell's waves.
func cellPercentile(xs []float64, cells []int, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	n := make(map[int]int)
	for _, c := range cells {
		n[c]++
	}
	order := make([]int, len(xs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return xs[order[a]] < xs[order[b]] })
	// The epsilon keeps float error in the running sum from skipping
	// an exact rank.
	want := p / 100 * float64(len(n))
	var cum float64
	for _, i := range order {
		if cum += 1 / float64(n[cells[i]]); cum >= want-1e-9 {
			return xs[i]
		}
	}
	return xs[order[len(order)-1]]
}

// interval is a span of wall time.
type interval struct{ start, end time.Time }

// cpuSampler reads the process CPU clock every few milliseconds while
// a campaign runs, so that the CPU time of wave jobs running side by
// side on the engine's workers can be told apart.
type cpuSampler struct {
	at   []time.Time
	cpu  []time.Duration
	quit chan struct{}
	done chan struct{}
}

// cpuSamplePeriod bounds the attribution error of a wave to one period
// at each end, about 1% of a ~0.4 s wave.
const cpuSamplePeriod = 2 * time.Millisecond

func startCPUSampler() *cpuSampler {
	s := &cpuSampler{quit: make(chan struct{}), done: make(chan struct{})}
	s.sample()
	go func() {
		defer close(s.done)
		tick := time.NewTicker(cpuSamplePeriod)
		defer tick.Stop()
		for {
			select {
			case <-s.quit:
				s.sample()
				return
			case <-tick.C:
				s.sample()
			}
		}
	}()
	return s
}

func (s *cpuSampler) sample() {
	s.at = append(s.at, time.Now())
	s.cpu = append(s.cpu, cpuTime())
}

// stop takes a last sample and waits for the sampler to exit.
func (s *cpuSampler) stop() {
	close(s.quit)
	<-s.done
}

// total is the CPU time between the first and the last sample.
func (s *cpuSampler) total() time.Duration { return s.cpu[len(s.cpu)-1] - s.cpu[0] }

// shares splits the sampled CPU time among ivs, in ms: the CPU used
// between two samples goes to the intervals open then, in proportion
// to how much of the sample period each covered. CPU used while no
// interval was open goes to none.
func (s *cpuSampler) shares(ivs []interval) []float64 {
	out := make([]float64, len(ivs))
	cover := make([]float64, len(ivs))
	for i := 1; i < len(s.at); i++ {
		a, b := s.at[i-1], s.at[i]
		var sum float64
		for k, iv := range ivs {
			lo, hi := iv.start, iv.end
			if a.After(lo) {
				lo = a
			}
			if b.Before(hi) {
				hi = b
			}
			cover[k] = 0
			if hi.After(lo) {
				cover[k] = float64(hi.Sub(lo))
				sum += cover[k]
			}
		}
		if sum == 0 {
			continue
		}
		d := ms(s.cpu[i] - s.cpu[i-1])
		for k := range ivs {
			out[k] += d * cover[k] / sum
		}
	}
	return out
}
