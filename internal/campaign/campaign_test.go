package campaign

import (
	"context"
	"strings"
	"testing"

	"repro/internal/api"
	"repro/internal/core"
)

// microScale keeps engine tests fast: just enough cycles for caches to
// fill and a few timeslices to elapse.
func microScale() Scale {
	return Scale{Warmup: 30_000, Measure: 60_000, Timeslice: 20_000}
}

func TestSpecExpandCrossProduct(t *testing.T) {
	s := Spec{
		Name:      "x",
		Kinds:     []core.Kind{core.KindNoDMR, core.KindReunion},
		Workloads: []string{"apache", "oltp"},
		Seeds:     []uint64{1, 2, 3},
		Variants:  []Variant{{}, {Name: "tso", Knobs: Knobs{TSO: true}}},
	}
	jobs, err := s.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 2*2*3*2 {
		t.Fatalf("expanded %d jobs, want 24", len(jobs))
	}
	// Deterministic: a second expansion is identical.
	again, err := s.Expand()
	if err != nil {
		t.Fatal(err)
	}
	for i := range jobs {
		if jobs[i] != again[i] {
			t.Fatalf("expansion not deterministic at %d: %+v vs %+v", i, jobs[i], again[i])
		}
	}
}

func TestSpecExpandDefaultsAndValidation(t *testing.T) {
	s := Spec{Name: "d", Kinds: []core.Kind{core.KindNoDMR}}
	jobs, err := s.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 6*2 { // all workloads x default seeds
		t.Fatalf("expanded %d jobs, want 12", len(jobs))
	}
	if _, err := (Spec{Name: "e"}).Expand(); err == nil {
		t.Fatal("empty spec must not expand")
	}
	if _, err := (Spec{Name: "bad", Kinds: []core.Kind{core.KindNoDMR}, Workloads: []string{"nope"}}).Expand(); err == nil {
		t.Fatal("unknown workload must be rejected at expansion")
	}
}

func TestSpecExpandDedupes(t *testing.T) {
	j := Job{Workload: "apache", Kind: core.KindNoDMR, Seed: 1}
	jobs, err := (Spec{Name: "dup", Jobs: []Job{j, j, j}}).Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 1 {
		t.Fatalf("dedupe kept %d jobs, want 1", len(jobs))
	}
}

func TestJobKeyAndFingerprint(t *testing.T) {
	j := Job{Workload: "apache", Kind: core.KindMMMIPC, Seed: 11}
	if j.Key() != "apache/MMM-IPC" {
		t.Fatal(j.Key())
	}
	j.Variant = "serial"
	if j.Key() != "apache/MMM-IPC/serial" {
		t.Fatal(j.Key())
	}

	sc := microScale()
	base := j.Fingerprint(sc)
	perturb := []Job{
		{Workload: "oltp", Kind: j.Kind, Seed: j.Seed, Variant: j.Variant},
		{Workload: j.Workload, Kind: core.KindMMMTP, Seed: j.Seed, Variant: j.Variant},
		{Workload: j.Workload, Kind: j.Kind, Seed: 12, Variant: j.Variant},
		{Workload: j.Workload, Kind: j.Kind, Seed: j.Seed, Variant: "parallel"},
		{Workload: j.Workload, Kind: j.Kind, Seed: j.Seed, Variant: j.Variant, Knobs: Knobs{PABSerial: true}},
		{Workload: j.Workload, Kind: j.Kind, Seed: j.Seed, Variant: j.Variant, Knobs: Knobs{FaultInterval: 1000}},
	}
	for i, p := range perturb {
		if p.Fingerprint(sc) == base {
			t.Errorf("perturbation %d did not change the fingerprint", i)
		}
	}
	if j.Fingerprint(Scale{Warmup: 1, Measure: 2, Timeslice: 3}) == base {
		t.Error("scale change did not change the fingerprint")
	}
	if j.Fingerprint(sc) != base {
		t.Error("fingerprint not stable")
	}
}

func TestSimSeedDecorrelatesCells(t *testing.T) {
	a := Job{Workload: "apache", Kind: core.KindNoDMR, Seed: 11}
	b := Job{Workload: "oltp", Kind: core.KindNoDMR, Seed: 11}
	c := Job{Workload: "apache", Kind: core.KindReunion, Seed: 11}
	if a.SimSeed() == b.SimSeed() || a.SimSeed() == c.SimSeed() {
		t.Fatal("cells sharing a declared seed must get distinct sim seeds")
	}
	if a.SimSeed() != a.SimSeed() {
		t.Fatal("sim seed not stable")
	}
}

func TestRegistryNamesExpand(t *testing.T) {
	names := Names()
	if len(names) == 0 {
		t.Fatal("no registered campaigns")
	}
	for _, n := range names {
		spec, err := Named(n, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		jobs, err := spec.Expand()
		if err != nil {
			t.Fatalf("%s: %v", n, err)
		}
		if len(jobs) == 0 {
			t.Fatalf("%s: expanded to no jobs", n)
		}
	}
	if _, err := Named("nope", nil, nil); err == nil {
		t.Fatal("unknown campaign name must error")
	}
}

func TestEnginePropagatesErrors(t *testing.T) {
	eng := New(Options{Parallel: 2})
	_, err := eng.Run(context.Background(), microScale(),
		[]Job{{Workload: "nope", Kind: core.KindNoDMR, Seed: 1}})
	if err == nil || !strings.Contains(err.Error(), "nope") {
		t.Fatalf("bad workload not reported: %v", err)
	}
}

func TestEngineHonorsCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	eng := New(Options{Parallel: 2})
	_, err := eng.Run(ctx, microScale(),
		[]Job{{Workload: "apache", Kind: core.KindNoDMR, Seed: 1}})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestEngineProgressCallback(t *testing.T) {
	var calls int
	var lastDone, lastTotal int
	eng := New(Options{Parallel: 1, OnProgress: func(done, total, hits int) {
		calls++
		lastDone, lastTotal = done, total
	}})
	jobs := []Job{
		{Workload: "apache", Kind: core.KindNoDMR, Seed: 1},
		{Workload: "apache", Kind: core.KindNoDMR, Seed: 2},
	}
	if _, err := eng.Run(context.Background(), microScale(), jobs); err != nil {
		t.Fatal(err)
	}
	if calls != 2 || lastDone != 2 || lastTotal != 2 {
		t.Fatalf("progress calls=%d last=%d/%d", calls, lastDone, lastTotal)
	}
}

func TestDiskCacheRoundTrip(t *testing.T) {
	c, err := NewDiskCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get("deadbeef"); ok {
		t.Fatal("empty cache reported a hit")
	}
	m := core.Metrics{
		Kind:       core.KindMMMTP,
		Workload:   "apache",
		Cycles:     123,
		GuestUser:  map[string]uint64{"perf": 42, "reliable": 7},
		GuestOS:    map[string]uint64{"perf": 1},
		GuestVCPUs: map[string]int{"perf": 16, "reliable": 8},
		EnterAvg:   2200.5,
	}
	if err := c.Put("deadbeef", m); err != nil {
		t.Fatal(err)
	}
	got, ok := c.Get("deadbeef")
	if !ok {
		t.Fatal("stored entry not found")
	}
	if got.Cycles != m.Cycles || got.GuestUser["perf"] != 42 ||
		got.GuestVCPUs["reliable"] != 8 || got.EnterAvg != 2200.5 {
		t.Fatalf("round trip mangled metrics: %+v", got)
	}
}

func TestReliaJobsExpand(t *testing.T) {
	jobs := ReliaJobs([]string{"apache", "oltp", "pmake"}, []uint64{11}, []float64{20_000, 40_000}, 3)
	modes := len(ReliaModes())
	if want := 3 * modes * 2 * 1; len(jobs) != want {
		t.Fatalf("expanded %d relia jobs, want %d", len(jobs), want)
	}
	variants := map[string]bool{}
	for _, j := range jobs {
		if j.Knobs.ReliaTrials != 3 {
			t.Fatalf("job lost its trial count: %+v", j)
		}
		if j.Knobs.FaultInterval == 0 {
			t.Fatalf("job lost its rate: %+v", j)
		}
		variants[j.Variant] = true
	}
	if len(variants) != modes*2 {
		t.Fatalf("%d distinct variants, want %d (mode x rate)", len(variants), modes*2)
	}
	// Different rates must produce different fingerprints (cache cells).
	a := jobs[0]
	b := a
	b.Knobs.FaultInterval *= 2
	if a.Fingerprint(microScale()) == b.Fingerprint(microScale()) {
		t.Fatal("fault rate not part of the job fingerprint")
	}
	// The registered campaign resolves and expands.
	spec, err := Named("relia", []string{"apache"}, []uint64{11})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := spec.Expand(); err != nil {
		t.Fatal(err)
	}
}

func TestCatalogAxes(t *testing.T) {
	cat := Catalog()
	if len(cat) != len(Names()) {
		t.Fatalf("catalog has %d entries, want %d", len(cat), len(Names()))
	}
	byName := map[string]api.Axes{}
	for _, ax := range cat {
		byName[ax.Name] = ax
	}
	relia, ok := byName["relia"]
	if !ok || !relia.Reliability {
		t.Fatalf("relia axes missing or not flagged: %+v", relia)
	}
	if len(relia.Kinds) == 0 || len(relia.Workloads) == 0 || len(relia.Variants) == 0 || relia.Jobs == 0 {
		t.Fatalf("relia axes incomplete: %+v", relia)
	}
	fig5 := byName["figure5"]
	if len(fig5.Kinds) != 3 || fig5.Reliability {
		t.Fatalf("figure5 axes wrong: %+v", fig5)
	}
}

func TestCountingCache(t *testing.T) {
	cc := NewCountingCache(NewMemCache())
	if _, ok := cc.Get("a"); ok {
		t.Fatal("phantom hit")
	}
	if err := cc.Put("a", core.Metrics{Cycles: 1}); err != nil {
		t.Fatal(err)
	}
	if _, ok := cc.Get("a"); !ok {
		t.Fatal("miss after put")
	}
	hits, misses, puts := cc.Stats()
	if hits != 1 || misses != 1 || puts != 1 {
		t.Fatalf("stats = %d/%d/%d, want 1/1/1", hits, misses, puts)
	}
}

func TestPolicyAxisExpand(t *testing.T) {
	spec := Spec{
		Name:      "t",
		Kinds:     []core.Kind{core.KindMMMIPC},
		Workloads: []string{"apache"},
		Seeds:     []uint64{11},
		Policies:  []string{"static", "duty-cycle:60000:25", "fault-escalation"},
	}
	jobs, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	// "static" normalizes to the "" default cell and the parameterized
	// duty-cycle spec canonicalizes to its default name.
	want := []string{"", "duty-cycle", "fault-escalation"}
	if len(jobs) != len(want) {
		t.Fatalf("expanded %d jobs, want %d: %+v", len(jobs), len(want), jobs)
	}
	for i, j := range jobs {
		if j.Knobs.Policy != want[i] {
			t.Errorf("job %d policy %q, want %q", i, j.Knobs.Policy, want[i])
		}
	}
	// The policy is its own key segment and fingerprint input.
	if jobs[0].Key() != "apache/MMM-IPC" {
		t.Errorf("default cell key = %q", jobs[0].Key())
	}
	if jobs[1].Key() != "apache/MMM-IPC/pol=duty-cycle" {
		t.Errorf("policy cell key = %q", jobs[1].Key())
	}
	if jobs[0].Fingerprint(microScale()) == jobs[1].Fingerprint(microScale()) {
		t.Error("policy not part of the fingerprint")
	}
	if jobs[0].SimSeed() == jobs[1].SimSeed() {
		t.Error("policy cells share a random stream")
	}

	// Unknown policies are rejected at expansion.
	bad := spec
	bad.Policies = []string{"warp-drive"}
	if _, err := bad.Expand(); err == nil {
		t.Fatal("unknown policy expanded")
	}

	// The axis multiplies explicit job lists too.
	explicit := Spec{
		Name:     "t2",
		Jobs:     []Job{{Workload: "apache", Kind: core.KindReunion, Seed: 11}},
		Policies: []string{"", "utilization"},
	}
	jobs, err = explicit.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 2 || jobs[1].Knobs.Policy != "utilization" {
		t.Fatalf("explicit-jobs axis: %+v", jobs)
	}
}

func TestPolicyCampaignRegistered(t *testing.T) {
	spec, err := Named("policy", []string{"apache"}, []uint64{11})
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	// 2 variants x (static + every dynamic policy) x 1 workload x 1 seed.
	if want := 2 * 4; len(jobs) != want {
		t.Fatalf("policy campaign expands to %d jobs, want %d", len(jobs), want)
	}
	// The relia campaign carries the adaptive modes' policies.
	spec, err = Named("relia", []string{"apache"}, []uint64{11})
	if err != nil {
		t.Fatal(err)
	}
	jobs, err = spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	adaptive := 0
	for _, j := range jobs {
		if j.Knobs.Policy != "" {
			adaptive++
		}
	}
	if adaptive == 0 {
		t.Fatal("relia campaign has no adaptive-policy cells")
	}
}

func TestPolicyAxisPreservesPresetPolicies(t *testing.T) {
	// An operator-supplied policy axis must never rewrite cells whose
	// policy is part of their identity: relia's adaptive modes would
	// otherwise emit rows labeled fault-escalation/duty-cycle while
	// simulating something else.
	spec, err := Named("relia", []string{"apache"}, []uint64{11})
	if err != nil {
		t.Fatal(err)
	}
	spec.Policies = []string{"static"}
	jobs, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	byVariant := map[string]string{}
	for _, j := range jobs {
		byVariant[j.Variant] = j.Knobs.Policy
	}
	for variant, pol := range byVariant {
		switch {
		case strings.HasPrefix(variant, "adaptive-"):
			if pol != "fault-escalation" {
				t.Errorf("adaptive cell %q rewritten to policy %q", variant, pol)
			}
		case strings.HasPrefix(variant, "duty-"):
			if pol != "duty-cycle" {
				t.Errorf("duty cell %q rewritten to policy %q", variant, pol)
			}
		default:
			if pol != "" {
				t.Errorf("static-mode cell %q gained policy %q", variant, pol)
			}
		}
	}
}

func TestPolicyCampaignBaselineSharesFigure6Cells(t *testing.T) {
	// The policy campaign's fault-free static cells must be figure6's
	// MMM-IPC cells — same fingerprint, same cache entry — so the
	// design study never re-simulates the baseline it normalizes to.
	polSpec, err := Named("policy", []string{"apache"}, []uint64{11})
	if err != nil {
		t.Fatal(err)
	}
	polJobs, err := polSpec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	figSpec, err := Named("figure6", []string{"apache"}, []uint64{11})
	if err != nil {
		t.Fatal(err)
	}
	figJobs, err := figSpec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	figFPs := map[string]bool{}
	for _, j := range figJobs {
		figFPs[j.Fingerprint(microScale())] = true
	}
	shared := 0
	for _, j := range polJobs {
		if figFPs[j.Fingerprint(microScale())] {
			shared++
		}
	}
	if shared == 0 {
		t.Fatal("policy campaign's static baseline shares no cells with figure6")
	}
}
