package api

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strconv"
	"testing"
)

// fmtKey and fmtFingerprint are Key and Fingerprint as first written,
// with fmt: the reference the concatenated and strconv renderings must
// equal, since every cached result is filed under them.
func fmtKey(j Job) string {
	k := fmt.Sprintf("%s/%s", j.Workload, j.Kind)
	if j.Variant != "" {
		k += "/" + j.Variant
	}
	if j.Knobs.Policy != "" {
		k += "/pol=" + j.Knobs.Policy
	}
	return k
}

func fmtFingerprint(j Job, sc Scale) string {
	h := sha256.New()
	fmt.Fprintf(h,
		"v%d|warm=%d|meas=%d|slice=%d|wl=%s|kind=%s|seed=%d|var=%s|pabser=%t|pabdis=%t|tso=%t|flush=%d|fault=%g|fkinds=%s|rtrials=%d|fpab=%t|policy=%s",
		SpecVersion, sc.Warmup, sc.Measure, sc.Timeslice,
		j.Workload, j.Kind, j.Seed, j.Variant,
		j.Knobs.PABSerial, j.Knobs.PABDisabled, j.Knobs.TSO,
		j.Knobs.FlushPerCycle, j.Knobs.FaultInterval,
		j.Knobs.FaultKinds, j.Knobs.ReliaTrials, j.Knobs.ForcePAB,
		j.Knobs.Policy)
	if j.Knobs.Wave > 0 {
		fmt.Fprintf(h, "|wave=%d|off=%d", j.Knobs.Wave, j.Knobs.TrialOffset)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestKeyAndFingerprintMatchFmtRendering compares Key and Fingerprint
// with the fmt reference on random jobs and scales: every field drawn,
// unknown kinds, negative counts and waves, NaN and infinite intervals.
func TestKeyAndFingerprintMatchFmtRendering(t *testing.T) {
	g := newEventGen(rand.New(rand.NewSource(3)))
	for i := 0; i < 20_000; i++ {
		var j Job
		var sc Scale
		g.fill(reflect.ValueOf(&j).Elem())
		g.fill(reflect.ValueOf(&sc).Elem())
		if got, want := j.Key(), fmtKey(j); got != want {
			t.Fatalf("%+v: key %q, fmt renders %q", j, got, want)
		}
		if got, want := j.Fingerprint(sc), fmtFingerprint(j, sc); got != want {
			t.Fatalf("%+v at %+v: fingerprint %s, fmt renders %s", j, sc, got, want)
		}
	}
	for field := range g.fields {
		if !g.nonZero[field] {
			t.Errorf("field %s was never drawn non-zero", field)
		}
	}
}

// TestFormatFloatMatchesPercentG: the fingerprint renders the fault
// interval with strconv's shortest 'g' form where it first used fmt's
// %g. The two agree on random bit patterns (NaN, infinities and
// subnormals among them) and on drawn intervals.
func TestFormatFloatMatchesPercentG(t *testing.T) {
	n := 1 << 20
	if testing.Short() {
		n = 1 << 16
	}
	g := newEventGen(rand.New(rand.NewSource(4)))
	fs := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1), 25_000, 12_345.678, 1e21, 1e-7}
	for i := 0; i < n; i++ {
		f := math.Float64frombits(g.r.Uint64())
		switch {
		case i < len(fs):
			f = fs[i]
		case i%2 == 0:
			f = g.float()
		}
		if got, want := strconv.FormatFloat(f, 'g', -1, 64), fmt.Sprintf("%g", f); got != want {
			t.Fatalf("%#x: strconv %s, %%g %s", math.Float64bits(f), got, want)
		}
	}
}
