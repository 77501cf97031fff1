package campaign

import (
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/api"
	"repro/internal/core"
)

// TestSpecExpandLimit: a spec expanding past MaxJobs, as a cross
// product or as explicit jobs times policies, is refused with an error
// naming the limit, and so is a Named campaign whose axes would build
// more jobs than that; a spec at the limit expands.
func TestSpecExpandLimit(t *testing.T) {
	seeds := func(n int) []uint64 {
		out := make([]uint64, n)
		for i := range out {
			out[i] = uint64(i + 1)
		}
		return out
	}
	limit := fmt.Sprint(MaxJobs)
	at := Spec{Name: "at", Kinds: []core.Kind{core.KindNoDMR}, Workloads: []string{"apache"}, Seeds: seeds(MaxJobs)}
	if jobs, err := at.Expand(); err != nil || len(jobs) != MaxJobs {
		t.Fatalf("spec at the limit: %d jobs, %v", len(jobs), err)
	}
	over := at
	over.Seeds = seeds(MaxJobs/2 + 1)
	over.Kinds = []core.Kind{core.KindNoDMR, core.KindReunion}
	explicit := Spec{Name: "explicit", Jobs: make([]Job, 256), Policies: make([]string, MaxJobs/256+1)}
	for i := range explicit.Jobs {
		explicit.Jobs[i] = Job{Workload: "apache", Seed: uint64(i)}
	}
	for _, s := range []Spec{over, explicit} {
		if _, err := s.Expand(); err == nil || !strings.Contains(err.Error(), limit) {
			t.Errorf("spec %q over the limit: err %v, want one naming %s", s.Name, err, limit)
		}
		if _, _, err := s.Cells(); err == nil {
			t.Errorf("spec %q over the limit: Cells accepted it", s.Name)
		}
	}
	// relia builds 12 jobs per workload-seed pair, so these axes are
	// over the limit although their pairs are not; Named must refuse
	// them before the builder allocates the list.
	wls, many := []string{"apache", "pmake"}, seeds(MaxJobs/24+1)
	if _, err := Named("relia", wls, many); err == nil || !strings.Contains(err.Error(), limit) {
		t.Errorf("Named over the limit: err %v, want one naming %s", err, limit)
	}
	if allocs := testing.AllocsPerRun(1, func() { _, _ = Named("relia", wls, many) }); allocs > 1000 {
		t.Errorf("refusing an over-limit Named campaign made %.0f allocations", allocs)
	}
	if err := checkJobs("overflow", 1<<40, 1<<40, 1<<40); err == nil {
		t.Error("checkJobs accepted a product past the int range")
	}
}

// FuzzSpec: arbitrary bytes decoded as a Spec never panic expansion or
// planning. A spec whose cells expand has a Key, Fingerprint and
// SimSeed for every cell, a precision block that validates, a plan,
// and a JSON round trip that expands to the same cells and precision.
func FuzzSpec(f *testing.F) {
	for _, name := range Names() {
		spec, err := Named(name, nil, nil)
		if err != nil {
			f.Fatal(err)
		}
		data, err := json.Marshal(spec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	explicit, err := json.Marshal(Spec{
		Name:      "explicit",
		Jobs:      ReliaJobs([]string{"apache"}, []uint64{11}, []float64{25_000}, 0)[:3],
		Policies:  []string{"", "duty-cycle:60000:25"},
		Precision: &Precision{Metric: "sdc", HalfWidth: 0.1, WaveTrials: 4, MinTrials: 8},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(explicit)
	sc := QuickScale()
	f.Fuzz(func(t *testing.T, data []byte) {
		var spec Spec
		if err := json.Unmarshal(data, &spec); err != nil {
			return
		}
		cells, prec, err := spec.Cells()
		if err != nil {
			return
		}
		fps := make([]string, len(cells))
		for i, c := range cells {
			_, _ = c.Key(), c.SimSeed()
			fps[i] = c.Fingerprint(sc)
		}
		if prec != nil {
			if err := prec.Validate(); err != nil {
				t.Fatalf("Cells returned a precision block that does not validate: %v", err)
			}
			if limit := api.PrecisionAxis().MaxTrials; prec.WaveTrials > limit || prec.MinTrials > limit || prec.MaxTrials > limit {
				t.Fatalf("validated precision block %+v exceeds the trial limit %d", *prec, limit)
			}
		}
		if _, err := newPlan(sc, spec); err != nil {
			t.Fatalf("Cells accepted the spec but newPlan refused it: %v", err)
		}
		enc, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("an expandable spec does not marshal: %v", err)
		}
		var back Spec
		if err := json.Unmarshal(enc, &back); err != nil {
			t.Fatalf("%s does not unmarshal: %v", enc, err)
		}
		cells2, prec2, err := back.Cells()
		if err != nil {
			t.Fatalf("round trip %s does not expand: %v", enc, err)
		}
		fps2 := make([]string, len(cells2))
		for i, c := range cells2 {
			fps2[i] = c.Fingerprint(sc)
		}
		if !reflect.DeepEqual(fps, fps2) || !reflect.DeepEqual(prec, prec2) {
			t.Fatalf("round trip %s changed the cells or precision", enc)
		}
	})
}
