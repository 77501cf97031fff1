package core

import (
	"reflect"
	"testing"

	"repro/internal/cache"
	"repro/internal/fault"
	"repro/internal/mode"
	"repro/internal/sim"
	"repro/internal/workload"
)

// buildCell constructs one benchmark cell deterministically.
func buildCell(t *testing.T, kind Kind, plan *fault.Plan) *Chip {
	t.Helper()
	return buildCellWith(t, kind, "", plan, nil)
}

// buildCellWith is buildCell under the named mode policy ("" for the
// kind's default) with tweak applied to the chip's config first (nil
// for the default).
func buildCellWith(t *testing.T, kind Kind, policy string, plan *fault.Plan, tweak func(*sim.Config)) *Chip {
	t.Helper()
	wl, err := workload.ByName("apache")
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.DefaultConfig()
	cfg.TimesliceCycles = 15_000 // several gang switches inside the window
	if tweak != nil {
		tweak(cfg)
	}
	chip, err := NewSystem(Options{Cfg: cfg, Kind: kind, Workload: wl, Seed: 11, Policy: policy, FaultPlan: plan})
	if err != nil {
		t.Fatal(err)
	}
	return chip
}

// knobCells are the config variants the per-kind tests cover: the
// default, TSO (stores drain through the store buffer) and a Leave-DMR
// flush of four lines per cycle.
var knobCells = []struct {
	name  string
	tweak func(*sim.Config)
}{
	{"", nil},
	{"/tso", func(c *sim.Config) { c.TSO = true }},
	{"/flush4", func(c *sim.Config) { c.FlushPerCycle = 4 }},
}

// TestRunMatchesTickPerCycle: Run's event-horizon bulk stepping and
// skipping of sleeping (stalled or idle) cores must be cycle-for-cycle
// equivalent to the per-cycle reference (Tick in a loop, every core
// every cycle) — identical Metrics for one cell of every system kind,
// under the default config and under each ablation knob: TSO (stores
// drain through the store buffer) and a Leave-DMR flush of four lines
// per cycle. This is the safety net under the hot-path overhaul: any
// event the bulk loop skips or double-runs shows up as a counter diff.
func TestRunMatchesTickPerCycle(t *testing.T) {
	const warmup, measure = 30_000, 60_000
	for _, kind := range AllKinds() {
		for _, k := range knobCells {
			t.Run(kind.String()+k.name, func(t *testing.T) {
				fast := buildCellWith(t, kind, "", nil, k.tweak)
				mFast := fast.Measure(warmup, measure)

				slow := buildCellWith(t, kind, "", nil, k.tweak)
				for i := 0; i < warmup; i++ {
					slow.Tick()
				}
				slow.ResetMeasurement()
				start := slow.Now
				for i := 0; i < measure; i++ {
					slow.Tick()
				}
				mSlow := slow.Collect(slow.Now - start)

				if !reflect.DeepEqual(mFast, mSlow) {
					t.Errorf("fast path diverged from per-cycle reference:\nfast: %+v\nslow: %+v", mFast, mSlow)
				}
			})
		}
	}
}

// TestRunMatchesTickDynamicPolicies repeats the equivalence check for
// every mode policy, with fault injection active so the
// fault-escalation path (policy decisions fired from inside a core's
// Tick, mid-bulk-step) is exercised, and on SingleOS so policy timers
// race the trap hooks' transitions (the transDirty path). The
// parameterized duty-cycle's short period lands boundaries between, on
// and across gang rotations.
func TestRunMatchesTickDynamicPolicies(t *testing.T) {
	const warmup, measure = 30_000, 90_000
	for _, kind := range []Kind{KindReunion, KindMMMIPC, KindMMMTP, KindSingleOS} {
		for _, pol := range []string{"static", "utilization", "duty-cycle", "duty-cycle:9000:40", "fault-escalation"} {
			t.Run(kind.String()+"/"+pol, func(t *testing.T) {
				build := func() *Chip {
					wl, err := workload.ByName("apache")
					if err != nil {
						t.Fatal(err)
					}
					cfg := sim.DefaultConfig()
					cfg.TimesliceCycles = 15_000
					chip, err := NewSystem(Options{
						Cfg: cfg, Kind: kind, Workload: wl, Seed: 11, Policy: pol,
						FaultPlan: &fault.Plan{MeanInterval: 3_000, Seed: 5},
						ForcePAB:  true,
					})
					if err != nil {
						t.Fatal(err)
					}
					return chip
				}
				fast := build()
				mFast := fast.Measure(warmup, measure)

				slow := build()
				for i := 0; i < warmup; i++ {
					slow.Tick()
				}
				slow.ResetMeasurement()
				start := slow.Now
				for i := 0; i < measure; i++ {
					slow.Tick()
				}
				mSlow := slow.Collect(slow.Now - start)

				if !reflect.DeepEqual(mFast, mSlow) {
					t.Errorf("dynamic-policy fast path diverged:\nfast: %+v\nslow: %+v", mFast, mSlow)
				}
			})
		}
	}
}

// TestRunMatchesTickUnderFaultInjection repeats the equivalence check
// with the fault injector active, covering the injector's event-horizon
// path (including multi-fault catch-up at one cycle).
func TestRunMatchesTickUnderFaultInjection(t *testing.T) {
	const warmup, measure = 20_000, 40_000
	plan := func() *fault.Plan {
		return &fault.Plan{MeanInterval: 1_500, Seed: 77}
	}
	for _, kind := range []Kind{KindReunion, KindMMMIPC} {
		t.Run(kind.String(), func(t *testing.T) {
			fast := buildCell(t, kind, plan())
			mFast := fast.Measure(warmup, measure)

			slow := buildCell(t, kind, plan())
			for i := 0; i < warmup; i++ {
				slow.Tick()
			}
			slow.ResetMeasurement()
			start := slow.Now
			for i := 0; i < measure; i++ {
				slow.Tick()
			}
			mSlow := slow.Collect(slow.Now - start)

			if !reflect.DeepEqual(mFast, mSlow) {
				t.Errorf("fault-injected fast path diverged:\nfast: %+v\nslow: %+v", mFast, mSlow)
			}
			if mFast.FaultsInjected == 0 {
				t.Error("fault campaign injected nothing; the cell is not exercising the injector")
			}
		})
	}
}

// TestRunSplitMatchesSingleRun: a sleeping core's counters are owed
// across Run calls and settled when it is next ticked or read, so how a
// run is cut must not matter. One chip warms up and measures with single
// Run calls; a second runs the same cycles in rotating slices of 1, 2
// and 7,919 cycles, with its ResetMeasurement and an extra read-only
// Collect landing wherever the slices end. Every kind runs with and
// without fault injection.
func TestRunSplitMatchesSingleRun(t *testing.T) {
	const warmup, measure = 30_000, 60_000
	for _, kind := range AllKinds() {
		for _, faults := range []bool{false, true} {
			name := kind.String()
			plan := func() *fault.Plan { return nil }
			if faults {
				name += "/faults"
				plan = func() *fault.Plan { return &fault.Plan{MeanInterval: 5_000, Seed: 5} }
			}
			t.Run(name, func(t *testing.T) {
				want := buildCell(t, kind, plan()).Measure(warmup, measure)

				split := buildCell(t, kind, plan())
				slices := []sim.Cycle{1, 2, 7_919}
				calls := 0
				runTo := func(to sim.Cycle) {
					for split.Now < to {
						n := slices[calls%len(slices)]
						calls++
						if left := to - split.Now; n > left {
							n = left
						}
						split.Run(n)
					}
				}
				runTo(warmup)
				split.ResetMeasurement()
				start := split.Now
				runTo(start + measure/2)
				split.Collect(split.Now - start)
				runTo(start + measure)
				got := split.Collect(split.Now - start)

				if !reflect.DeepEqual(want, got) {
					t.Errorf("split run diverged from a single run:\nsingle: %+v\nsplit:  %+v", want, got)
				}
			})
		}
	}
}

// TestWarmRunAllocations bounds what a warm Chip.Run allocates: under
// one object per 50 simulated cycles, for every kind x mode policy x
// knob cell on apache with faults injected. What a warm span allocates
// does not scale with cycles (a transition record per mode switch, a
// side source per pair binding, map and ring growth: at most 4.2
// objects per thousand cycles on 200k-cycle spans with Go 1.24's maps,
// 6.7 with GOEXPERIMENT=noswissmap), so an allocation per cycle or per
// retired instruction breaks the bound by orders of magnitude.
// AllocsPerRun counts every goroutine's allocations: no test of this
// package may run in parallel with this one.
func TestWarmRunAllocations(t *testing.T) {
	const warmup, cyclesPerAlloc = 60_000, 50
	span := sim.Cycle(200_000)
	if testing.Short() {
		span = 50_000
	}
	bound := float64(span / cyclesPerAlloc)
	for _, kind := range AllKinds() {
		for _, pol := range mode.Names() {
			for _, k := range knobCells {
				t.Run(kind.String()+"/"+pol+k.name, func(t *testing.T) {
					chip := buildCellWith(t, kind, pol, &fault.Plan{MeanInterval: 3_000, Seed: 5}, k.tweak)
					chip.Run(warmup)
					if allocs := testing.AllocsPerRun(1, func() { chip.Run(span) }); allocs >= bound {
						t.Errorf("warm Run(%d) allocated %.0f objects, want under %.0f (one per %d cycles)",
							span, allocs, bound, cyclesPerAlloc)
					}
				})
			}
		}
	}
}

// BenchmarkNewSystem tracks chip-construction cost (PAT sync, page
// tables, generators, cache arrays): campaign workers and relia trial
// batches build thousands of short-lived chips, so construction is part
// of the hot path. It builds them as trials do: through one
// cache.Recycler, releasing each chip before the next is built.
func BenchmarkNewSystem(b *testing.B) {
	wl, err := workload.ByName("apache")
	if err != nil {
		b.Fatal(err)
	}
	rec := cache.NewRecycler()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		chip, err := NewSystem(Options{Kind: KindMMMIPC, Workload: wl, Seed: 11, Recycler: rec})
		if err != nil {
			b.Fatal(err)
		}
		chip.Release()
	}
}

// TestResetMeasurementRebasesInjector: warmup-window faults are real
// (the corrupted state persists) but the measured FaultsInjected metric
// must cover only the measurement window.
func TestResetMeasurementRebasesInjector(t *testing.T) {
	chip := buildCell(t, KindReunion, &fault.Plan{MeanInterval: 1_000, Seed: 5})
	chip.Run(20_000)
	warm := chip.Injector.Total()
	if warm == 0 {
		t.Fatal("no warmup faults; raise the rate so the regression test has teeth")
	}
	chip.ResetMeasurement()
	chip.Run(20_000)
	m := chip.Collect(20_000)
	total := chip.Injector.Total()
	if m.FaultsInjected != total-warm {
		t.Fatalf("FaultsInjected = %d, want measurement-window-only %d (total %d, warmup %d)",
			m.FaultsInjected, total-warm, total, warm)
	}
	if m.FaultsInjected == 0 {
		t.Fatal("no measurement-window faults; the assertion above is vacuous")
	}
}
