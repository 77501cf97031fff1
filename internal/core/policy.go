package core

import (
	"fmt"

	"repro/internal/mode"
	"repro/internal/obs"
	"repro/internal/sim"
)

// This file is the chip side of the runtime mode-policy seam
// (internal/mode): the chip consults its Policy at scheduling
// boundaries — timer horizons (gang timeslices, utilization sample
// periods, duty-cycle boundaries, escalation decays) and, for
// fault-sensitive policies, protection-mechanism events — and turns
// the returned per-pair assignments into mode transitions through the
// existing Enter-DMR / Leave-DMR machinery.

// PolicyName returns the canonical name of the chip's mode policy.
func (c *Chip) PolicyName() string { return c.policy.Name() }

// GroupSwitches counts the timer-driven policy decisions that
// reconfigured at least one pair — under the static policy, exactly
// the consolidated-server gang rotations.
func (c *Chip) GroupSwitches() uint64 { return c.groupSwitches }

// installPolicy resolves and arms the chip's mode policy and applies
// its initial assignments directly (no transition cost at t=0).
func (c *Chip) installPolicy(name string) error {
	pol, err := mode.New(name)
	if err != nil {
		return err
	}
	init := pol.Reset(mode.Topology{
		Pairs:     len(c.Pairs),
		Groups:    len(c.groups),
		Timeslice: c.Cfg.TimesliceCycles,
	})
	if len(init) != len(c.Pairs) {
		return fmt.Errorf("core: policy %q returned %d initial assignments for %d pairs",
			pol.Name(), len(init), len(c.Pairs))
	}
	c.policy = pol
	c.polWantsFaults = pol.WantsFaults()
	copy(c.curAsg, init)
	for pi := range init {
		c.applyPlan(pi, c.planFor(init[pi], pi), false)
	}
	c.polNextAt = pol.NextEventAt()
	return nil
}

// planFor maps a policy assignment onto a concrete pair plan: the
// roster group's built plan, with the coupling override applied where
// it is applicable. Coupling a plan that is already DMR (or has no
// VCPU) and decoupling one that is already independent are no-ops, so
// policies can issue overrides uniformly across heterogeneous rosters.
func (c *Chip) planFor(a mode.Assignment, pi int) pairPlan {
	if a.Group < 0 || a.Group >= len(c.groups) {
		panic(fmt.Sprintf("core: policy %q assigned pair %d to group %d of %d",
			c.policy.Name(), pi, a.Group, len(c.groups)))
	}
	pl := c.groups[a.Group][pi]
	switch a.Override {
	case mode.OverrideDecouple:
		if pl.dmr {
			return pairPlan{vocal: pl.vocal}
		}
	case mode.OverrideCouple:
		if !pl.dmr && pl.vocal != nil {
			return pairPlan{vocal: pl.vocal, dmr: true}
		}
	}
	return pl
}

// policyDecide runs one decision point: report per-pair status, ask
// the policy, re-read its timer horizon, and start transitions for
// every pair whose plan actually changes. Pairs with a transition in
// flight are skipped — exactly as the pre-policy gang switch skipped
// them — and keep their previous target assignment, so a policy that
// must win re-issues the decision at its next event.
func (c *Chip) policyDecide(ev mode.Event) {
	st := c.pairStatus(ev.Cycle)
	asg := c.policy.Decide(ev, st)
	c.polNextAt = c.policy.NextEventAt()
	if asg == nil {
		return
	}
	if len(asg) != len(c.curAsg) {
		panic(fmt.Sprintf("core: policy %q decided %d assignments for %d pairs",
			c.policy.Name(), len(asg), len(c.curAsg)))
	}
	started := false
	evKind := ev.Kind.String()
	for pi, a := range asg {
		if c.trans[pi] != nil {
			// Switching already; the policy may re-issue later. The
			// flight recorder notes the dropped decision so retries can
			// be distinguished when they finally land.
			if c.rec != nil && a != c.curAsg[pi] {
				c.rec.Emit(obs.Event{
					Kind: obs.KindDecision, Cycle: ev.Cycle,
					Pair: pi, Core: -1,
					Cause: evKind + "/dropped",
					Arg:   int64(a.Group),
				})
				c.polRetry[pi] = true
			}
			continue
		}
		pl := c.planFor(a, pi)
		c.curAsg[pi] = a
		if pl == c.curPlan[pi] {
			continue // inapplicable override or unchanged group
		}
		cause := evKind // read only by the flight recorder
		if c.rec != nil && a.Override != mode.OverrideNone {
			cause += "/" + a.Override.String()
		}
		if c.rec != nil {
			verdict := "/taken"
			if c.polRetry[pi] {
				verdict = "/retried"
				c.polRetry[pi] = false
			}
			c.rec.Emit(obs.Event{
				Kind: obs.KindDecision, Cycle: ev.Cycle,
				Pair: pi, Core: -1,
				Cause: evKind + verdict,
				Arg:   int64(a.Group),
			})
			if a.Override != mode.OverrideNone {
				c.rec.Emit(obs.Event{
					Kind: obs.KindOverride, Cycle: ev.Cycle,
					Pair: pi, Core: -1,
					Cause: a.Override.String(),
				})
			}
		}
		c.startTransition(pi, pl, false, ev.Cycle, cause)
		started = true
	}
	if started && ev.Kind == mode.EvTimer {
		c.groupSwitches++
	}
}

// policyFault forwards one protection event to a fault-sensitive
// policy. It fires synchronously from inside a core's Tick (machine
// checks and PAB exceptions surface mid-cycle, like trap hooks), so
// it marks the bulk-step horizon dirty: the decision may have moved
// the policy's timer while Run was mid-stride.
func (c *Chip) policyFault(kind mode.EventKind, pair int, now sim.Cycle) {
	c.policyDecide(mode.Event{Kind: kind, Pair: pair, Cycle: now})
	c.transDirty = true
}

// pairStatus refreshes the per-pair status scratch for one decision
// point: current assignment and coupling, transition occupancy, and
// commit deltas over the window since the previous decision.
func (c *Chip) pairStatus(now sim.Cycle) []mode.PairStatus {
	window := now - c.polLastAt
	for pi := range c.polStatus {
		vc, mc := c.Cores[2*pi], c.Cores[2*pi+1]
		vCommits, mCommits := vc.C.Commits, mc.C.Commits
		c.polStatus[pi] = mode.PairStatus{
			Assignment:   c.curAsg[pi],
			DMR:          c.curPlan[pi].dmr,
			InTransition: c.trans[pi] != nil,
			VocalCommits: vCommits - c.polLastCommits[2*pi],
			MuteCommits:  mCommits - c.polLastCommits[2*pi+1],
			Window:       window,
			VocalBusy:    !vc.Idle(),
			MuteBusy:     !mc.Idle(),
		}
		c.polLastCommits[2*pi] = vCommits
		c.polLastCommits[2*pi+1] = mCommits
	}
	c.polLastAt = now
	return c.polStatus
}
