package core

import (
	"reflect"
	"testing"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/workload"
)

// telemetryCell builds the ISSUE's acceptance configuration — an
// MMM-IPC chip under the utilization policy with fault injection — so
// the recorder sees transitions, policy decisions and faults.
func telemetryCell(t *testing.T, rec *obs.Recorder) *Chip {
	t.Helper()
	wl, err := workload.ByName("apache")
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.DefaultConfig()
	cfg.TimesliceCycles = 15_000
	chip, err := NewSystem(Options{
		Cfg: cfg, Kind: KindMMMIPC, Workload: wl, Seed: 11,
		Policy:    "utilization",
		FaultPlan: &fault.Plan{MeanInterval: 3_000, Seed: 5},
		ForcePAB:  true,
		Recorder:  rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	return chip
}

// TestRecorderCapturesRunEvents is the tentpole's flight-recorder
// acceptance check at the package level: an instrumented MMM-IPC +
// utilization run must record mode transitions (with drain latency),
// policy decisions, faults, injector attempts and bulk steps.
func TestRecorderCapturesRunEvents(t *testing.T) {
	rec := obs.NewRecorder(1 << 18)
	chip := telemetryCell(t, rec)
	chip.Measure(30_000, 90_000)

	byKind := map[obs.Kind]int{}
	for _, ev := range rec.Events() {
		byKind[ev.Kind]++
	}
	for _, kind := range []obs.Kind{
		obs.KindEnterDMR, obs.KindLeaveDMR, obs.KindDecision,
		obs.KindFault, obs.KindInjection, obs.KindBulkStep,
	} {
		if byKind[kind] == 0 {
			t.Errorf("no %s events recorded (kinds seen: %v)", kind, byKind)
		}
	}

	// Transition spans carry a duration and the pair they ran on;
	// decisions carry a "<event>/<verdict>" cause.
	for _, ev := range rec.Events() {
		switch ev.Kind {
		case obs.KindEnterDMR, obs.KindLeaveDMR:
			if ev.Dur == 0 {
				t.Fatalf("transition span without duration: %+v", ev)
			}
			if ev.Pair < 0 {
				t.Fatalf("transition without pair: %+v", ev)
			}
		case obs.KindDecision:
			if ev.Cause == "" {
				t.Fatalf("decision without cause: %+v", ev)
			}
		case obs.KindBulkStep:
			if ev.Dur == 0 {
				t.Fatalf("bulk step without duration: %+v", ev)
			}
		}
	}
}

// TestRecorderDoesNotPerturbResults is the determinism hard
// requirement: a run with the flight recorder attached must produce
// Metrics identical to the same run without it.
func TestRecorderDoesNotPerturbResults(t *testing.T) {
	plain := telemetryCell(t, nil)
	mPlain := plain.Measure(30_000, 90_000)

	rec := obs.NewRecorder(0)
	traced := telemetryCell(t, rec)
	mTraced := traced.Measure(30_000, 90_000)

	if !reflect.DeepEqual(mPlain, mTraced) {
		t.Fatalf("recorder changed simulation results:\nplain:  %+v\ntraced: %+v", mPlain, mTraced)
	}
	if rec.Total() == 0 {
		t.Fatal("recorder attached but saw no events — instrumentation is dead")
	}
	// And across every system kind with a dynamic policy, since each
	// kind wires different hooks.
	for _, kind := range AllKinds() {
		t.Run(kind.String(), func(t *testing.T) {
			build := func(rec *obs.Recorder) *Chip {
				wl, err := workload.ByName("apache")
				if err != nil {
					t.Fatal(err)
				}
				cfg := sim.DefaultConfig()
				cfg.TimesliceCycles = 15_000
				chip, err := NewSystem(Options{
					Cfg: cfg, Kind: kind, Workload: wl, Seed: 11, Policy: "duty-cycle",
					FaultPlan: &fault.Plan{MeanInterval: 3_000, Seed: 5},
					Recorder:  rec,
				})
				if err != nil {
					t.Fatal(err)
				}
				return chip
			}
			a := build(nil).Measure(20_000, 40_000)
			b := build(obs.NewRecorder(1<<12)).Measure(20_000, 40_000)
			if !reflect.DeepEqual(a, b) {
				t.Errorf("recorder changed %s results:\nplain:  %+v\ntraced: %+v", kind, a, b)
			}
		})
	}
}

// TestRecorderTransitionCausesNamed checks that recorded transitions
// carry the policy-event cause they were started for, not empty
// strings — the whole point of the flight recorder is attribution.
func TestRecorderTransitionCausesNamed(t *testing.T) {
	rec := obs.NewRecorder(1 << 16)
	chip := telemetryCell(t, rec)
	chip.Measure(30_000, 90_000)

	caused := 0
	for _, ev := range rec.Events() {
		if ev.Kind != obs.KindEnterDMR && ev.Kind != obs.KindLeaveDMR {
			continue
		}
		if ev.Cause != "" {
			caused++
		}
	}
	if caused == 0 {
		t.Fatal("no transition carried a cause")
	}
}
