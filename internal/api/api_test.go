package api

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/stats"
)

func TestPrecisionNormalizedDefaults(t *testing.T) {
	p := Precision{HalfWidth: 0.05}.Normalized()
	if p.Metric != "coverage" {
		t.Fatalf("default metric %q", p.Metric)
	}
	if p.WaveTrials != DefaultWaveTrials {
		t.Fatalf("default wave trials %d", p.WaveTrials)
	}
	if p.MinTrials != DefaultMinWaves*DefaultWaveTrials {
		t.Fatalf("default min trials %d", p.MinTrials)
	}
	// MaxTrials defaults to the worst-case (p=0.5) sample size rounded
	// up to a whole wave: the budget a fixed design must provision.
	worst := int(stats.WorstCaseTrials(0.05))
	if p.MaxTrials < worst || p.MaxTrials%p.WaveTrials != 0 {
		t.Fatalf("default max trials %d, want >= %d and a wave multiple", p.MaxTrials, worst)
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("normalized block invalid: %v", err)
	}

	// The trial limit is exactly the largest default budget, the one at
	// MinHalfWidth, so every default-sized block validates.
	tightest := Precision{HalfWidth: MinHalfWidth}.Normalized()
	if err := tightest.Validate(); err != nil {
		t.Fatalf("default-sized block at MinHalfWidth invalid: %v", err)
	}
	if tightest.MaxTrials != maxTrials {
		t.Fatalf("default budget at MinHalfWidth %d, trial limit %d", tightest.MaxTrials, maxTrials)
	}

	// Explicit knobs survive normalization.
	q := Precision{Metric: "sdc", HalfWidth: 0.1, WaveTrials: 3, MinTrials: 6, MaxTrials: 9}.Normalized()
	if q != (Precision{Metric: "sdc", HalfWidth: 0.1, WaveTrials: 3, MinTrials: 6, MaxTrials: 9}) {
		t.Fatalf("normalization mutated explicit knobs: %+v", q)
	}
}

// TestPrecisionValidateNamesBounds: rejections name the valid bounds,
// so the 400 a server builds from them tells the client what to fix.
func TestPrecisionValidateNamesBounds(t *testing.T) {
	cases := []struct {
		p    Precision
		want string
	}{
		{Precision{Metric: "latency", HalfWidth: 0.05}, "coverage"},
		{Precision{HalfWidth: 0.0001}, fmt.Sprint(MinHalfWidth)},
		{Precision{HalfWidth: 0.3}, fmt.Sprint(MaxHalfWidth)},
		{Precision{HalfWidth: 0.05, WaveTrials: -1, MinTrials: 1, MaxTrials: 1}, "wave_trials"},
		{Precision{HalfWidth: 0.05, WaveTrials: 1, MinTrials: 8, MaxTrials: 4}, "max_trials"},
		// Trial counts past the largest default budget: an untrusted
		// submission must not schedule billions of trials per cell.
		{Precision{HalfWidth: 0.25, WaveTrials: 1_000_000_000, MinTrials: 1, MaxTrials: 1}, fmt.Sprint(maxTrials)},
		{Precision{HalfWidth: 0.25, WaveTrials: math.MaxInt, MinTrials: 1, MaxTrials: 1}, fmt.Sprint(maxTrials)},
		{Precision{HalfWidth: 0.1, WaveTrials: 12, MinTrials: 1 << 40, MaxTrials: 1 << 40}, fmt.Sprint(maxTrials)},
		{Precision{HalfWidth: 0.1, WaveTrials: 12, MinTrials: 24, MaxTrials: maxTrials + 1}, fmt.Sprint(maxTrials)},
	}
	for _, c := range cases {
		p := c.p
		if p.Metric == "" {
			p.Metric = "coverage"
		}
		err := p.Validate()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Validate(%+v) = %v, want mention of %q", c.p, err, c.want)
		}
	}
	// Normalized must not wrap a huge wave into a valid-looking block.
	for _, p := range []Precision{
		{HalfWidth: 0.25, WaveTrials: 1_000_000_000},
		{HalfWidth: 0.25, WaveTrials: math.MaxInt},
		{HalfWidth: 0.1, MinTrials: 1 << 40},
	} {
		err := p.Normalized().Validate()
		if err == nil || !strings.Contains(err.Error(), fmt.Sprint(maxTrials)) {
			t.Errorf("Normalized(%+v).Validate() = %v, want mention of %d", p, err, maxTrials)
		}
	}
}

func TestPrecisionAxis(t *testing.T) {
	ax := PrecisionAxis()
	if len(ax.Metrics) != len(PrecisionMetrics) ||
		ax.MinHalfWidth != MinHalfWidth || ax.MaxHalfWidth != MaxHalfWidth || ax.MaxTrials != maxTrials {
		t.Fatalf("advertised axis %+v disagrees with the package bounds", ax)
	}
}

// TestFingerprintWaveCoordinates: wave jobs render their wave
// coordinates — distinct waves, offsets and sizes of one cell never
// collide, while Key and SimSeed stay wave-invariant so waves aggregate
// into their cell.
func TestFingerprintWaveCoordinates(t *testing.T) {
	sc := Scale{Warmup: 30_000, Measure: 60_000, Timeslice: 20_000}
	base := Job{Workload: "apache", Kind: core.KindReunion, Seed: 11, Variant: "dmr-r5000",
		Knobs: Knobs{FaultInterval: 5000, ReliaTrials: 2, Wave: 1, TrialOffset: 0}}

	seen := map[string]Job{}
	perturb := []Job{base}
	w2 := base
	w2.Knobs.Wave, w2.Knobs.TrialOffset = 2, 2
	w3 := base
	w3.Knobs.Wave, w3.Knobs.TrialOffset = 2, 4
	w4 := base
	w4.Knobs.ReliaTrials = 4
	perturb = append(perturb, w2, w3, w4)
	for _, j := range perturb {
		fp := j.Fingerprint(sc)
		if prev, dup := seen[fp]; dup {
			t.Fatalf("wave fingerprint collision: %+v vs %+v", prev, j)
		}
		seen[fp] = j
	}

	fixed := base
	fixed.Knobs.Wave, fixed.Knobs.TrialOffset = 0, 0
	if fixed.Fingerprint(sc) == base.Fingerprint(sc) {
		t.Fatal("wave 1 shares a fingerprint with the fixed-batch job")
	}

	if base.Key() != fixed.Key() || w2.Key() != fixed.Key() {
		t.Fatal("wave knobs leaked into the aggregation key")
	}
	if base.SimSeed() != fixed.SimSeed() || w2.SimSeed() != fixed.SimSeed() {
		t.Fatal("wave knobs leaked into the sim seed")
	}
}
