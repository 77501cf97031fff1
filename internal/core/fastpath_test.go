package core

import (
	"reflect"
	"testing"

	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/workload"
)

// buildCell constructs one benchmark cell deterministically.
func buildCell(t *testing.T, kind Kind, plan *fault.Plan) *Chip {
	t.Helper()
	wl, err := workload.ByName("apache")
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.DefaultConfig()
	cfg.TimesliceCycles = 15_000 // several gang switches inside the window
	chip, err := NewSystem(Options{Cfg: cfg, Kind: kind, Workload: wl, Seed: 11, FaultPlan: plan})
	if err != nil {
		t.Fatal(err)
	}
	return chip
}

// TestRunMatchesTickPerCycle: Run's event-horizon bulk stepping and
// idle-core skipping must be cycle-for-cycle equivalent to the per-cycle
// reference (Tick in a loop) — identical Metrics for one cell of every
// system kind. This is the safety net under the hot-path overhaul: any
// event the bulk loop skips or double-runs shows up as a counter diff.
func TestRunMatchesTickPerCycle(t *testing.T) {
	const warmup, measure = 30_000, 60_000
	for _, kind := range AllKinds() {
		t.Run(kind.String(), func(t *testing.T) {
			fast := buildCell(t, kind, nil)
			mFast := fast.Measure(warmup, measure)

			slow := buildCell(t, kind, nil)
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

// BenchmarkNewSystem tracks chip-construction cost (PAT sync, page
// tables, cache arrays): campaign workers and relia trial batches build
// thousands of short-lived chips, so construction is part of the hot
// path.
func BenchmarkNewSystem(b *testing.B) {
	wl, err := workload.ByName("apache")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := NewSystem(Options{Kind: KindMMMIPC, Workload: wl, Seed: 11}); err != nil {
			b.Fatal(err)
		}
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
