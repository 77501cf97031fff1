package mode

import (
	"fmt"

	"repro/internal/sim"
)

// utilization is the utilization-triggered coupling policy: pairs run
// coupled (DMR) by default, decouple to performance mode while the
// guest is under load — the window where redundancy costs the most
// throughput — and re-couple as soon as the pair's commit rate drops
// back to where the redundant half would mostly idle anyway, making
// the reliability nearly free. The commit-rate hysteresis (decouple
// above decoupleIPC, re-couple below coupleIPC) keeps pairs from
// oscillating on noise.
type utilization struct {
	rot    rotor
	period sim.Cycle // sampling period
	// Hysteresis thresholds in commits per cycle on the vocal core.
	decoupleIPC, coupleIPC float64

	pairs    int
	sampleAt sim.Cycle
	ovr      []Override
	asg      []Assignment // Decide scratch, reused across decisions
}

// Name implements Policy.
func (p *utilization) Name() string { return "utilization" }

// WantsFaults implements Policy.
func (p *utilization) WantsFaults() bool { return false }

// Reset implements Policy.
func (p *utilization) Reset(t Topology) []Assignment {
	p.rot.reset(t)
	p.pairs = t.Pairs
	p.sampleAt = p.period
	p.ovr = make([]Override, t.Pairs)
	p.asg = make([]Assignment, t.Pairs)
	return p.asg
}

// NextEventAt implements Policy.
func (p *utilization) NextEventAt() sim.Cycle {
	if p.rot.nextAt < p.sampleAt {
		return p.rot.nextAt
	}
	return p.sampleAt
}

// Decide implements Policy.
func (p *utilization) Decide(ev Event, pairs []PairStatus) []Assignment {
	if ev.Kind != EvTimer {
		return nil
	}
	rotated := p.rot.due(ev.Cycle)
	sampled := false
	if ev.Cycle >= p.sampleAt {
		sampled = true
		p.sampleAt = ev.Cycle + p.period
		for i := range pairs {
			st := &pairs[i]
			if st.InTransition || st.Window == 0 {
				continue
			}
			rate := float64(st.VocalCommits) / float64(st.Window)
			switch {
			case st.DMR && rate >= p.decoupleIPC:
				p.ovr[i] = OverrideDecouple
			case !st.DMR && rate < p.coupleIPC:
				p.ovr[i] = OverrideCouple
			}
		}
	}
	if !rotated && !sampled {
		return nil
	}
	asg := p.asg
	for i := range asg {
		asg[i] = Assignment{Group: p.rot.active, Override: p.ovr[i]}
	}
	return asg
}

// dutyCycle is the duty-cycle DMR policy: periodic scrubbing windows.
// During the first window-cycles of every period each pair is forced
// into DMR coupling (scrub: divergence accumulated while unprotected
// is caught by the Enter-DMR verification and the fingerprint
// stream); for the rest of the period pairs run decoupled for
// performance. On rosters whose plans are already coupled (Reunion,
// DMR-base) the policy reads inversely: pairs get periodic
// performance windows and spend the duty fraction in DMR.
type dutyCycle struct {
	rot    rotor
	period sim.Cycle
	window sim.Cycle // coupled prefix of each period
	pct    int       // the duty percent as specified, echoed by Name
	pairs  int
	from   sim.Cycle    // boundaries at or after this cycle are upcoming
	asg    []Assignment // Decide scratch, reused across decisions
}

// Name implements Policy: the canonical parameterized form, with the
// defaults elided. The duty percent is the one that was parsed, not
// recomputed from the window — floor(100*window/period) loses a
// percent whenever period is not divisible by 100, which would make
// canonicalization non-idempotent and split one intended
// configuration across several cache cells.
func (p *dutyCycle) Name() string {
	if p.period == dutyDefaultPeriod && p.pct == dutyDefaultPct {
		return "duty-cycle"
	}
	return fmt.Sprintf("duty-cycle:%d:%d", p.period, p.pct)
}

// WantsFaults implements Policy.
func (p *dutyCycle) WantsFaults() bool { return false }

// Reset implements Policy.
func (p *dutyCycle) Reset(t Topology) []Assignment {
	p.rot.reset(t)
	p.pairs = t.Pairs
	p.from = 1 // cycle 0's scrub window is applied by Reset itself
	p.asg = make([]Assignment, t.Pairs)
	for i := range p.asg {
		p.asg[i] = Assignment{Override: OverrideCouple} // cycle 0 opens a scrub window
	}
	return p.asg
}

// NextEventAt implements Policy: the earlier of the gang rotation and
// the next duty boundary.
func (p *dutyCycle) NextEventAt() sim.Cycle {
	b := p.nextBoundary()
	if p.rot.nextAt < b {
		return p.rot.nextAt
	}
	return b
}

// nextBoundary returns the first duty-phase boundary at or after
// p.from (the cycle following the last handled decision). Boundaries
// are the period starts (couple) and the window ends (decouple); a
// p.from sitting exactly on a period start IS the next boundary —
// returning the window end instead would silently skip that period's
// scrub window.
func (p *dutyCycle) nextBoundary() sim.Cycle {
	pos := p.from % p.period
	switch {
	case pos == 0:
		return p.from
	case pos <= p.window:
		return p.from - pos + p.window
	default:
		return p.from - pos + p.period
	}
}

// Decide implements Policy.
func (p *dutyCycle) Decide(ev Event, pairs []PairStatus) []Assignment {
	if ev.Kind != EvTimer {
		return nil
	}
	p.rot.due(ev.Cycle)
	ovr := OverrideDecouple
	if ev.Cycle%p.period < p.window {
		ovr = OverrideCouple
	}
	asg := p.asg
	for i := range asg {
		asg[i] = Assignment{Group: p.rot.active, Override: ovr}
	}
	// NextEventAt must move past the boundary just handled.
	p.from = ev.Cycle + 1
	return asg
}

// faultEsc is the fault-escalation policy: a pair runs decoupled (as
// its roster built it) until a protection mechanism fires on it — a
// machine check from persistent fingerprint divergence, or a PAB
// exception stopping an unprotected store — at which point the pair
// escalates to DMR coupling. Each further event extends the
// escalation; after a clean decay interval the pair de-escalates back
// to its built plan. Decisions dropped because the pair's transition
// machinery was busy are re-issued on a short retry timer.
type faultEsc struct {
	rot   rotor
	decay sim.Cycle
	retry sim.Cycle

	pairs    int
	deadline []sim.Cycle // per pair; 0 = not escalated
	retryAt  sim.Cycle
	asg      []Assignment // Decide scratch, reused across decisions
}

// Name implements Policy.
func (p *faultEsc) Name() string {
	if p.decay == escDefaultDecay {
		return "fault-escalation"
	}
	return fmt.Sprintf("fault-escalation:%d", p.decay)
}

// WantsFaults implements Policy: this is the one registered policy
// driven by protection events.
func (p *faultEsc) WantsFaults() bool { return true }

// Reset implements Policy.
func (p *faultEsc) Reset(t Topology) []Assignment {
	p.rot.reset(t)
	p.pairs = t.Pairs
	p.deadline = make([]sim.Cycle, t.Pairs)
	p.retryAt = sim.Never
	p.asg = make([]Assignment, t.Pairs)
	return p.asg
}

// NextEventAt implements Policy: the earliest of rotation, the next
// escalation decay, and the retry timer.
func (p *faultEsc) NextEventAt() sim.Cycle {
	at := p.rot.nextAt
	for _, d := range p.deadline {
		if d != 0 && d < at {
			at = d
		}
	}
	if p.retryAt < at {
		at = p.retryAt
	}
	return at
}

// Decide implements Policy.
func (p *faultEsc) Decide(ev Event, pairs []PairStatus) []Assignment {
	switch ev.Kind {
	case EvMachineCheck, EvPABException:
		if ev.Pair >= 0 && ev.Pair < p.pairs {
			p.deadline[ev.Pair] = ev.Cycle + p.decay
		}
	case EvTimer:
		p.rot.due(ev.Cycle)
		if ev.Cycle >= p.retryAt {
			p.retryAt = sim.Never
		}
		for i, d := range p.deadline {
			if d != 0 && d <= ev.Cycle {
				p.deadline[i] = 0
			}
		}
	}
	asg := p.asg
	for i := range asg {
		asg[i] = Assignment{Group: p.rot.active}
		if p.deadline[i] != 0 {
			asg[i].Override = OverrideCouple
		}
	}
	// A desired assignment that differs from the pair's current target
	// while its transition machinery is busy will be dropped by the
	// chip; arm the retry timer so it is re-issued promptly.
	for i := range pairs {
		if pairs[i].InTransition && asg[i] != pairs[i].Assignment {
			if at := ev.Cycle + p.retry; at < p.retryAt {
				p.retryAt = at
			}
		}
	}
	return asg
}
