package mode

import (
	"strings"
	"testing"

	"repro/internal/sim"
)

// TestParseRoundTrip: every registered policy's canonical name parses
// back to itself, and the empty spec canonicalizes to static.
func TestParseRoundTrip(t *testing.T) {
	for _, name := range Names() {
		p, err := New(name)
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		if p.Name() != name {
			t.Errorf("New(%q).Name() = %q", name, p.Name())
		}
		canon, err := Parse(name)
		if err != nil || canon != name {
			t.Errorf("Parse(%q) = %q, %v", name, canon, err)
		}
	}
	if canon, err := Parse(""); err != nil || canon != "static" {
		t.Errorf("Parse(\"\") = %q, %v; want static", canon, err)
	}
}

// parameterizedForms are policy specs with parameter suffixes and the
// canonical names they parse to.
var parameterizedForms = []struct {
	spec, want string
}{
	{"duty-cycle:80000:50", "duty-cycle:80000:50"},
	{"duty-cycle:60000:25", "duty-cycle"}, // the defaults elide
	// A period not divisible by 100 must echo the parsed percent, not a
	// floor-recomputed one (25 -> 24 -> 23 would split one
	// configuration across several cache cells).
	{"duty-cycle:12345:25", "duty-cycle:12345:25"},
	{"fault-escalation:99000", "fault-escalation:99000"},
	{"fault-escalation:150000", "fault-escalation"},
}

// malformedSpecs are policy specs Parse must reject.
var malformedSpecs = []string{
	"nope", "static:1", "duty-cycle:0", "duty-cycle:x", "duty-cycle:60000:0",
	"duty-cycle:60000:100", "duty-cycle:1:1:1", "fault-escalation:0", "utilization:5",
}

// TestParseParameterizedForms: parameter suffixes round-trip through
// the canonical name, defaults elide, and malformed forms are
// rejected with the valid-name list.
func TestParseParameterizedForms(t *testing.T) {
	for _, c := range parameterizedForms {
		got, err := Parse(c.spec)
		if err != nil || got != c.want {
			t.Errorf("Parse(%q) = %q, %v; want %q", c.spec, got, err, c.want)
		}
		// The canonical form must itself round-trip.
		again, err := Parse(got)
		if err != nil || again != got {
			t.Errorf("Parse(%q) = %q, %v; not canonical", got, again, err)
		}
	}
	for _, bad := range malformedSpecs {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) accepted", bad)
		}
	}
	if _, err := Parse("nope"); err == nil || !strings.Contains(err.Error(), "static") {
		t.Errorf("unknown-policy error should list valid names, got %v", err)
	}
}

// FuzzParse: a policy spec either fails to parse or yields a canonical
// name that Parse maps to itself and that New builds under that name;
// no input panics.
func FuzzParse(f *testing.F) {
	for _, name := range Names() {
		f.Add(name)
	}
	for _, c := range parameterizedForms {
		f.Add(c.spec)
	}
	for _, bad := range malformedSpecs {
		f.Add(bad)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		canon, err := Parse(spec)
		if err != nil {
			return
		}
		if again, err := Parse(canon); err != nil || again != canon {
			t.Fatalf("Parse(%q) = %q, but Parse(%q) = %q, %v", spec, canon, canon, again, err)
		}
		p, err := New(canon)
		if err != nil {
			t.Fatalf("New(%q): %v", canon, err)
		}
		if p.Name() != canon {
			t.Fatalf("New(%q).Name() = %q", canon, p.Name())
		}
	})
}

// TestStaticRotation: the static policy reproduces the gang
// scheduler's rotation semantics — first switch at the timeslice,
// deadlines re-armed relative to the decision cycle, single-group
// rosters never rotate.
func TestStaticRotation(t *testing.T) {
	p, _ := New("static")
	asg := p.Reset(Topology{Pairs: 4, Groups: 2, Timeslice: 1000})
	if len(asg) != 4 {
		t.Fatalf("got %d initial assignments", len(asg))
	}
	for i, a := range asg {
		if a != (Assignment{}) {
			t.Fatalf("initial assignment %d = %+v", i, a)
		}
	}
	if at := p.NextEventAt(); at != 1000 {
		t.Fatalf("first deadline %d, want 1000", at)
	}
	st := make([]PairStatus, 4)
	// A decision arriving late (cycle 1200) re-arms relative to the
	// decision cycle, exactly like the pre-policy gang scheduler.
	out := p.Decide(Event{Kind: EvTimer, Pair: -1, Cycle: 1200}, st)
	if out == nil || out[0].Group != 1 {
		t.Fatalf("rotation missing: %+v", out)
	}
	if at := p.NextEventAt(); at != 2200 {
		t.Fatalf("re-armed deadline %d, want 2200", at)
	}
	// Non-timer events are ignored.
	if out := p.Decide(Event{Kind: EvMachineCheck, Pair: 0, Cycle: 1300}, st); out != nil {
		t.Fatalf("static reacted to a fault event: %+v", out)
	}

	single, _ := New("static")
	single.Reset(Topology{Pairs: 4, Groups: 1, Timeslice: 1000})
	if at := single.NextEventAt(); at != sim.Never {
		t.Fatalf("single-group roster got a deadline: %d", at)
	}
}

// TestDutyCycleBoundaries: coupled during the scrub window, decoupled
// after it, period after period.
func TestDutyCycleBoundaries(t *testing.T) {
	p, _ := New("duty-cycle:1000:25") // window = 250
	asg := p.Reset(Topology{Pairs: 2, Groups: 1, Timeslice: 0})
	if asg[0].Override != OverrideCouple {
		t.Fatal("cycle 0 must open a scrub window")
	}
	st := make([]PairStatus, 2)
	expect := []struct {
		at   sim.Cycle
		next Override
	}{
		{250, OverrideDecouple},  // scrub window ends
		{1000, OverrideCouple},   // next period opens
		{1250, OverrideDecouple}, // and closes its window
	}
	for _, e := range expect {
		if at := p.NextEventAt(); at != e.at {
			t.Fatalf("boundary at %d, want %d", at, e.at)
		}
		out := p.Decide(Event{Kind: EvTimer, Pair: -1, Cycle: p.NextEventAt()}, st)
		if out == nil || out[0].Override != e.next || out[1].Override != e.next {
			t.Fatalf("at %d: got %+v, want override %v", e.at, out, e.next)
		}
	}

	// A stray timer decision landing one cycle before a period start
	// (e.g. a gang rotation at k*period-1) must not skip that period's
	// scrub window: the next boundary is the period start itself.
	p.Decide(Event{Kind: EvTimer, Pair: -1, Cycle: 1999}, st)
	if at := p.NextEventAt(); at != 2000 {
		t.Fatalf("boundary after off-cycle decision at 1999: %d, want 2000", at)
	}
	out := p.Decide(Event{Kind: EvTimer, Pair: -1, Cycle: 2000}, st)
	if out == nil || out[0].Override != OverrideCouple {
		t.Fatalf("period start skipped its scrub window: %+v", out)
	}
}

// TestFaultEscalationDecay: a protection event couples the pair, a
// clean decay interval releases it, and a dropped decision arms the
// retry timer.
func TestFaultEscalationDecay(t *testing.T) {
	p, _ := New("fault-escalation:5000")
	p.Reset(Topology{Pairs: 2, Groups: 1, Timeslice: 0})
	st := make([]PairStatus, 2)

	out := p.Decide(Event{Kind: EvPABException, Pair: 1, Cycle: 100}, st)
	if out == nil || out[1].Override != OverrideCouple || out[0].Override != OverrideNone {
		t.Fatalf("escalation missing: %+v", out)
	}
	if at := p.NextEventAt(); at != 5100 {
		t.Fatalf("decay deadline %d, want 5100", at)
	}
	// A further event extends the escalation.
	p.Decide(Event{Kind: EvMachineCheck, Pair: 1, Cycle: 2000}, st)
	if at := p.NextEventAt(); at != 7000 {
		t.Fatalf("extended deadline %d, want 7000", at)
	}
	out = p.Decide(Event{Kind: EvTimer, Pair: -1, Cycle: 7000}, st)
	if out == nil || out[1].Override != OverrideNone {
		t.Fatalf("decay did not release the pair: %+v", out)
	}

	// Desired-vs-actual divergence on a transitioning pair arms the
	// retry timer.
	p.Decide(Event{Kind: EvPABException, Pair: 0, Cycle: 8000}, st)
	st[0].InTransition = true
	st[0].Assignment = Assignment{}
	p.Decide(Event{Kind: EvTimer, Pair: -1, Cycle: 9000}, st)
	if at := p.NextEventAt(); at != 9000+escRetry {
		t.Fatalf("retry not armed: next %d, want %d", at, 9000+escRetry)
	}
}

// TestUtilizationHysteresis: a busy coupled pair decouples; it only
// re-couples after the rate collapses below the lower threshold.
func TestUtilizationHysteresis(t *testing.T) {
	p, _ := New("utilization")
	p.Reset(Topology{Pairs: 1, Groups: 1, Timeslice: 0})
	busy := []PairStatus{{DMR: true, Window: 1000, VocalCommits: 100}} // rate 0.1
	out := p.Decide(Event{Kind: EvTimer, Pair: -1, Cycle: p.NextEventAt()}, busy)
	if out == nil || out[0].Override != OverrideDecouple {
		t.Fatalf("busy pair did not decouple: %+v", out)
	}
	// Mid-band rate keeps the decoupled state (hysteresis).
	mid := []PairStatus{{DMR: false, Window: 1000, VocalCommits: 25}} // rate 0.025
	out = p.Decide(Event{Kind: EvTimer, Pair: -1, Cycle: p.NextEventAt()}, mid)
	if out == nil || out[0].Override != OverrideDecouple {
		t.Fatalf("mid-band rate flapped: %+v", out)
	}
	idle := []PairStatus{{DMR: false, Window: 1000, VocalCommits: 2}} // rate 0.002
	out = p.Decide(Event{Kind: EvTimer, Pair: -1, Cycle: p.NextEventAt()}, idle)
	if out == nil || out[0].Override != OverrideCouple {
		t.Fatalf("idle pair did not re-couple: %+v", out)
	}
}

// TestDynamicExcludesStatic pins the catalog helper.
func TestDynamicExcludesStatic(t *testing.T) {
	for _, n := range Dynamic() {
		if n == "static" {
			t.Fatal("Dynamic() lists static")
		}
	}
	if len(Dynamic()) != len(Names())-1 {
		t.Fatalf("Dynamic() = %v, Names() = %v", Dynamic(), Names())
	}
}

// BenchmarkPolicyDecide measures the per-decision cost of every
// registered policy on a consolidated-server topology. The allocs/op
// column is the contract under test: Decide reuses a policy-owned
// scratch slice (PR 10), so steady-state decisions must not allocate.
// Run with -benchmem; any policy above 0 allocs/op has regressed.
func BenchmarkPolicyDecide(b *testing.B) {
	for _, name := range Names() {
		b.Run(name, func(b *testing.B) {
			p, err := New(name)
			if err != nil {
				b.Fatal(err)
			}
			p.Reset(Topology{Pairs: 4, Groups: 2, Timeslice: 1000})
			st := make([]PairStatus, 4)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Fire exactly at the policy's own deadline so every
				// iteration is a real decision, not an ignored event.
				at := p.NextEventAt()
				if at == sim.Never {
					at = sim.Cycle(i) // duty/static single-group never hit this here
				}
				p.Decide(Event{Kind: EvTimer, Pair: -1, Cycle: at}, st)
			}
		})
	}
}
