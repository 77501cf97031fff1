package main

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"time"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/workload"
)

// steadyMixes are the two application mixes of steady-sim: apache is
// OS-heavy and shares heavily across cores, pmake barely shares and runs
// at several times the IPC, so together they vary the property the
// cache hierarchy's cost depends on.
var steadyMixes = []string{"apache", "pmake"}

// steadyCell is one system configuration of steady-sim.
type steadyCell struct {
	name   string
	kind   core.Kind
	policy string
}

// steadyCells lists every system kind plus the two dynamic-policy cells
// whose decisions and transitions the run loop must absorb.
func steadyCells() []steadyCell {
	var cells []steadyCell
	for _, k := range core.AllKinds() {
		cells = append(cells, steadyCell{name: strings.ToLower(k.String()), kind: k})
	}
	return append(cells,
		steadyCell{name: "mmm-ipc.duty-cycle", kind: core.KindMMMIPC, policy: "duty-cycle"},
		steadyCell{name: "reunion.utilization", kind: core.KindReunion, policy: "utilization"})
}

// cellRun is one steady-sim cell's measurements, one entry per
// repetition, in process CPU time as measured.
type cellRun struct {
	cell      steadyCell
	job       campaign.Job
	construct []float64   // ms
	warmup    []float64   // ms
	setup     []float64   // construct + warmup, s
	window    []float64   // ResetMeasurement + slices + Collect, s
	wall      []float64   // the window in wall time, s
	slices    [][]float64 // per timeslice of the window, ms
	collect   []float64   // us
	ends      []time.Time // when each window ended, for the speed factor
	alloc     uint64      // bytes allocated during the measured windows
	first     core.Metrics
}

// steadyReps is how many times steady-sim sets up and measures every
// cell: at least three, more for longer runs.
func steadyReps(seconds int) int {
	if n := (seconds + 1) / 3; n > 3 {
		return n
	}
	return 3
}

// steadyPass sets up and measures every cell of steady-sim steadyReps
// times. Each repetition builds the cell's chip from scratch and warms
// it, then measures one campaign.QuickScale window timeslice by
// timeslice on one goroutine, so every repetition simulates exactly the
// same cycles — the cell's campaign job — and its metrics must repeat
// bit for bit. Repetitions loop outermost, which spreads a cell's
// samples across the whole run: the medians then see the host's
// interference at different moments.
func steadyPass(e *env, r *report, tr *tracer) ([]cellRun, error) {
	sc := campaign.QuickScale()
	root := tr.begin("steady-sim", 0)
	defer tr.end(root)
	var runs []cellRun
	for _, mix := range steadyMixes {
		for _, cell := range steadyCells() {
			runs = append(runs, cellRun{cell: cell, job: campaign.Job{Workload: mix, Kind: cell.kind,
				Seed: e.seed, Knobs: campaign.Knobs{Policy: cell.policy}}})
		}
	}
	for rep := 0; rep < steadyReps(e.seconds); rep++ {
		for i := range runs {
			if err := measureCell(r, tr, root, sc, &runs[i], rep); err != nil {
				return nil, err
			}
			e.cal.sample()
		}
	}
	return runs, nil
}

// measureCell sets up one cell and measures its window once.
func measureCell(r *report, tr *tracer, parent int, sc campaign.Scale, cr *cellRun, rep int) error {
	job := cr.job
	wl, err := workload.ByName(job.Workload)
	if err != nil {
		return err
	}
	span := tr.begin("cell "+job.Key(), parent)
	defer tr.end(span)
	cfg := sim.DefaultConfig()
	cfg.TimesliceCycles = sc.Timeslice
	job.Knobs.Apply(cfg)
	var chip *core.Chip
	construct := tr.cpuTimed("core.NewSystem", span, func() {
		chip, err = core.NewSystem(core.Options{Cfg: cfg, Kind: job.Kind, Workload: wl,
			Seed: job.SimSeed(), Policy: job.Knobs.Policy})
	})
	if err != nil {
		return fmt.Errorf("%s: %w", job.Key(), err)
	}
	warmup := tr.cpuTimed("core.Chip.Run warmup", span, func() { chip.Run(sc.Warmup) })
	cr.construct = append(cr.construct, ms(construct))
	cr.warmup = append(cr.warmup, ms(warmup))
	cr.setup = append(cr.setup, (construct + warmup).Seconds())
	// Set-up garbage is collected before timing, so the measured window
	// pays only for its own allocations.
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start, wallStart := cpuTime(), time.Now()
	tr.cpuTimed("core.Chip.ResetMeasurement", span, chip.ResetMeasurement)
	from := chip.Now
	var slices []float64
	for s := sim.Cycle(0); s < sc.Measure; s += sc.Timeslice {
		slices = append(slices, ms(tr.cpuTimed("core.Chip.Run slice", span, func() { chip.Run(sc.Timeslice) })))
	}
	var m core.Metrics
	collect := tr.cpuTimed("core.Chip.Collect", span, func() { m = chip.Collect(chip.Now - from) })
	cr.window = append(cr.window, (cpuTime() - start).Seconds())
	cr.wall = append(cr.wall, time.Since(wallStart).Seconds())
	cr.ends = append(cr.ends, time.Now())
	runtime.ReadMemStats(&ms1)
	chip.Release()
	cr.alloc += ms1.TotalAlloc - ms0.TotalAlloc
	cr.slices = append(cr.slices, slices)
	cr.collect = append(cr.collect, us(collect))

	problems := steadyProblems(cr.cell, &m, cfg.Cores)
	if rep == 0 {
		cr.first = m
	} else if !reflect.DeepEqual(m, cr.first) {
		problems = append(problems, job.Key()+": repeated window simulated differently")
	}
	r.op(problems...)
	return nil
}

// archInsts counts architecturally committed instructions, user plus
// OS, once per DMR pair (the guest attribution skips mute duplicates).
func archInsts(m *core.Metrics) uint64 {
	var n uint64
	for _, v := range m.GuestUser {
		n += v
	}
	for _, v := range m.GuestOS {
		n += v
	}
	return n
}

// steadyProblems checks one fault-free measured window.
func steadyProblems(cell steadyCell, m *core.Metrics, cores int) []string {
	key := m.Workload + "/" + cell.name
	var p []string
	bad := func(cond bool, format string, args ...any) {
		if cond {
			p = append(p, key+": "+fmt.Sprintf(format, args...))
		}
	}
	bad(m.Mismatches != 0, "%d fingerprint mismatches without faults", m.Mismatches)
	bad(m.PABExceptions != 0, "%d PAB exceptions without faults", m.PABExceptions)
	bad(m.VerifyFailures != 0, "%d verify failures without faults", m.VerifyFailures)
	bad(m.MachineChecks != 0, "%d machine checks without faults", m.MachineChecks)
	bad(m.Core.Cycles != uint64(cores)*m.Cycles,
		"core cycles %d, want %d cores x %d", m.Core.Cycles, cores, m.Cycles)
	static := cell.policy == ""
	switch cell.kind {
	case core.KindReunion, core.KindDMRBase:
		bad(static && m.Checks == 0, "DMR cell has no fingerprint checks")
	case core.KindMMMIPC, core.KindMMMTP:
		bad(m.PABChecks == 0, "MMM cell has no PAB checks")
		bad(m.EnterN == 0 || m.LeaveN == 0,
			"consolidated cell has %d Enter-DMR and %d Leave-DMR transitions", m.EnterN, m.LeaveN)
	case core.KindSingleOS:
		bad(m.PABChecks == 0, "SingleOS cell has no PAB checks")
	}
	return p
}

// runSteady is the steady-sim workload: the simulator's per-cycle cost
// with set-up excluded. A step is one 60k-cycle timeslice of one cell;
// a unit of work is one million simulated cycles. Host times are scaled
// by the speed factor at their repetition, then taken as medians over
// the repetitions, per cell (and per timeslice), summed over cells.
func runSteady(e *env, r *report) error {
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	runs, err := steadyPass(e, r, nil)
	if err != nil {
		return err
	}
	untracedWall := time.Since(start)
	runtime.ReadMemStats(&ms1)

	var setup, cpu, rawCPU, wall, cycles, insts float64
	var alloc uint64
	var steps, construct, warmup, collect []float64
	results := make([]campaign.Result, 0, len(runs))
	firsts := make([]core.Metrics, 0, len(runs))
	for _, cr := range runs {
		f := make([]float64, len(cr.ends))
		var normSetup, normWindow []float64
		for i, t := range cr.ends {
			f[i] = e.cal.factorAt(t)
			normSetup = append(normSetup, cr.setup[i]*f[i])
			normWindow = append(normWindow, cr.window[i]*f[i])
		}
		setup += median(normSetup)
		cpu += median(normWindow)
		rawCPU += median(cr.window)
		wall += median(cr.wall)
		cycles += float64(cr.first.Cycles)
		insts += float64(archInsts(&cr.first))
		alloc += cr.alloc
		for s := range cr.slices[0] {
			var reps []float64
			for i, sl := range cr.slices {
				reps = append(reps, sl[s]*f[i])
			}
			steps = append(steps, median(reps))
		}
		construct = append(construct, cr.construct...)
		warmup = append(warmup, cr.warmup...)
		collect = append(collect, cr.collect...)
		results = append(results, campaign.Result{Job: cr.job, Metrics: cr.first})
		firsts = append(firsts, cr.first)
	}
	r.set("setup_s", setup)
	r.set("work_per_cpu_s", cycles/1e6/cpu)
	r.set("step_ms_p50", median(steps))
	r.set("step_ms_tail", percentile(steps, tailPercentile(len(steps))))

	got := make(map[string]float64)
	for i := range firsts {
		steadyReference(got, results[i].Job.Key(), &firsts[i])
	}
	rs := &campaign.ResultSet{Scale: campaign.QuickScale(), Results: results}
	rowReference(got, campaign.Summarize(rs), "tp:total", "enter_avg", "checks", "ipc:")
	if err := e.reference(r, got); err != nil {
		return err
	}
	if !e.traced {
		return nil
	}

	// Per-layer figures: host times from the untraced pass above, the
	// profile split and tracing overhead from a traced pass.
	byCell := make(map[string][2]float64) // cycles, median window seconds
	for _, cr := range runs {
		v := byCell[cr.cell.name]
		byCell[cr.cell.name] = [2]float64{v[0] + float64(cr.first.Cycles), v[1] + median(cr.window)}
	}
	for name, v := range byCell {
		r.set("core.run_mcps."+name, v[0]/1e6/v[1])
	}
	for _, name := range []string{"mmm-ipc", "mmm-tp"} {
		var enter, pab, commits float64
		for _, cr := range runs {
			if cr.cell.name == name {
				enter += float64(cr.first.EnterN)
				pab += float64(cr.first.PABChecks)
				commits += float64(cr.first.Core.Commits)
			}
		}
		r.set("core.enter_n."+name, enter)
		r.set("pab.checks_per_kinst."+name, ratio(pab, commits/1e3))
	}
	r.set("core.minst_per_s", insts/1e6/rawCPU)
	r.set("host.wall_s", wall)
	r.set("host.cpu_per_wall", rawCPU/wall)
	r.set("core.construct_ms", median(construct))
	r.set("core.warmup_ms", median(warmup))
	r.set("core.collect_us", median(collect))
	r.set("host.alloc_mb", float64(ms1.TotalAlloc-ms0.TotalAlloc)/(1<<20))
	r.set("host.alloc_b_per_cycle", ratio(float64(alloc), cycles*float64(steadyReps(e.seconds))))
	simLayers(r, firsts)

	tracedWall, err := e.profiled(r, func(tr *tracer) error {
		_, err := steadyPass(e, r, tr)
		return err
	})
	if err != nil {
		return err
	}
	r.set("host.trace_overhead_pct", overheadPct(tracedWall, untracedWall))

	jobs := make([]campaign.Job, len(runs))
	jobSeconds := make([]float64, len(runs))
	for i, cr := range runs {
		jobs[i] = cr.job
		jobSeconds[i] = median(cr.setup) + median(cr.window)
	}
	r.set("campaign.job_s_p50", median(jobSeconds))
	if err := campaignProbe(e, r, jobs, firsts); err != nil {
		return err
	}
	_, err = trialProbe(e, r)
	return err
}

// steadyReference records the simulated counters of one cell's first
// window under the cell's campaign key.
func steadyReference(got map[string]float64, key string, m *core.Metrics) {
	for name, v := range map[string]uint64{
		"commits":      m.Core.Commits,
		"user_commits": m.Core.UserCommits,
		"checks":       m.Checks,
		"pab_checks":   m.PABChecks,
		"enter_n":      m.EnterN,
		"leave_n":      m.LeaveN,
		"c2c":          m.Cache.C2CTransfers,
		"l1_misses":    m.Cache.L1Misses,
		"tlb_misses":   m.Core.TLBMisses,
	} {
		got[key+"|"+name] = float64(v)
	}
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
