package mode

import "repro/internal/sim"

// rotor is the consolidated-server gang rotation (1 ms timeslices in
// the paper): groups take turns in fixed timeslices. Every policy
// embeds one so dynamic policies compose with guest rotation instead
// of starving the inactive guest. This is the sole implementation of
// the rotation semantics the pre-policy sched.Gang had; the golden-row
// regression pins its behavior.
type rotor struct {
	groups int
	slice  sim.Cycle
	active int
	nextAt sim.Cycle
}

// reset arms the rotor for a run. Single-group rosters never rotate.
func (r *rotor) reset(t Topology) {
	r.groups = t.Groups
	r.slice = t.Timeslice
	r.active = 0
	if t.Groups <= 1 {
		r.nextAt = sim.Never
	} else {
		r.nextAt = t.Timeslice
	}
}

// due rotates to the next group when the timeslice expired, returning
// whether a rotation happened. The deadline is re-armed relative to
// the decision cycle, not the nominal boundary (pre-policy semantics,
// kept byte-identical).
func (r *rotor) due(now sim.Cycle) bool {
	if r.groups <= 1 || now < r.nextAt {
		return false
	}
	r.active = (r.active + 1) % r.groups
	r.nextAt = now + r.slice
	return true
}

// static is the policy form of the paper's evaluated systems: run the
// roster exactly as built, rotating gang groups at timeslice
// boundaries and never overriding a pair's coupling. Every pre-policy
// system kind maps onto it byte-identically (the golden-row regression
// in internal/campaign pins this).
type static struct {
	rot   rotor
	pairs int
	asg   []Assignment // Decide scratch, reused across decisions
}

// Name implements Policy.
func (p *static) Name() string { return "static" }

// WantsFaults implements Policy: static systems ignore fault events.
func (p *static) WantsFaults() bool { return false }

// Reset implements Policy.
func (p *static) Reset(t Topology) []Assignment {
	p.rot.reset(t)
	p.pairs = t.Pairs
	p.asg = make([]Assignment, t.Pairs)
	return p.asg // group 0, no override
}

// NextEventAt implements Policy.
func (p *static) NextEventAt() sim.Cycle { return p.rot.nextAt }

// Decide implements Policy: rotate the gang, assign the new active
// group everywhere.
func (p *static) Decide(ev Event, pairs []PairStatus) []Assignment {
	if ev.Kind != EvTimer || !p.rot.due(ev.Cycle) {
		return nil
	}
	asg := p.asg
	for i := range asg {
		asg[i] = Assignment{Group: p.rot.active}
	}
	return asg
}
