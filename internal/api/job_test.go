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

	"repro/internal/core"
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

// TestEveryJobFieldSeparatesFingerprints: every cached result is filed
// under Job.Fingerprint, so two jobs that differ in any one field must
// have two addresses. The leaf fields of Job (with Knobs) and Scale are
// found by reflection, so a field added to any of them is checked with
// no test edit, and fails here until Fingerprint renders it. The jobs
// are wave jobs, which render every field.
func TestEveryJobFieldSeparatesFingerprints(t *testing.T) {
	type address struct {
		Job   Job
		Scale Scale
	}
	fields := leafFields(reflect.TypeOf(address{}), "", nil)
	g := newEventGen(rand.New(rand.NewSource(5)))
	const n = 2_000
	for i := 0; i < n; i++ {
		var a address
		g.fill(reflect.ValueOf(&a).Elem())
		if a.Job.Knobs.Wave <= 0 {
			a.Job.Knobs.Wave = 1 + g.r.Intn(64)
		}
		fp := a.Job.Fingerprint(a.Scale)
		for _, f := range fields {
			b := a
			v := reflect.ValueOf(&b).Elem().FieldByIndex(f.index)
			old := v.Interface()
			g.change(v)
			if b.Job.Fingerprint(b.Scale) == fp {
				t.Fatalf("%s %v and %v share fingerprint %s\n%+v", f.name, old, v.Interface(), fp, a)
			}
		}
	}
	t.Logf("%d leaf fields, each changed in %d wave jobs", len(fields), n)
}

// leafField is a field of a nested struct that is not itself a struct,
// by its dotted name and reflect index path.
type leafField struct {
	name  string
	index []int
}

// leafFields lists t's leaf fields in declaration order.
func leafFields(t reflect.Type, prefix string, index []int) []leafField {
	var out []leafField
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		idx := append(index[:len(index):len(index)], i)
		if f.Type.Kind() == reflect.Struct {
			out = append(out, leafFields(f.Type, prefix+f.Name+".", idx)...)
		} else {
			out = append(out, leafField{prefix + f.Name, idx})
		}
	}
	return out
}

// change sets v to a value the fingerprint must tell apart from the
// one it holds: the other bool, another registered kind (unknown kinds
// all render "?"), a finite float of other bits (every NaN renders
// "NaN"), otherwise a fresh draw that differs.
func (g *eventGen) change(v reflect.Value) {
	old := v.Interface()
	switch {
	case v.Kind() == reflect.Bool:
		v.SetBool(!v.Bool())
	case v.Type() == kindType:
		kinds := core.AllKinds()
		for v.Interface() == old {
			v.SetInt(int64(kinds[g.r.Intn(len(kinds))]))
		}
	case v.Kind() == reflect.Float64:
		for bits := math.Float64bits(v.Float()); ; {
			f := g.float()
			if !math.IsNaN(f) && !math.IsInf(f, 0) && math.Float64bits(f) != bits {
				v.SetFloat(f)
				return
			}
		}
	default:
		for v.Interface() == old {
			g.fill(v)
		}
	}
}
