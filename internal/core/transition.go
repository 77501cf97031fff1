package core

import (
	"repro/internal/cpu"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/vcpu"
)

// transKind classifies a pair reconfiguration for cost accounting.
type transKind int

const (
	transCtx   transKind = iota // context switch without a mode change
	transEnter                  // performance -> DMR
	transLeave                  // DMR -> performance
)

// transition is the per-pair mode-switch state machine (Section 3.4.3):
// hold fetch, wait for both pipelines to drain, run the hardware state
// machine that moves and verifies VCPU state through the scratchpad
// space, then reconfigure the pair and resume.
type transition struct {
	phase        int // 0 = draining, 1 = moving
	doneAt       sim.Cycle
	startAt      sim.Cycle
	old, next    pairPlan
	kind         transKind
	suppressHook bool // vocal resumes into the trap that caused the switch
	// cause names what queued the switch (policy event kind, possibly
	// with a coupling override, or a single-OS trap boundary). Only
	// read by the flight recorder.
	cause string
}

// startTransition holds fetch on the pair and queues the switch; cause
// names the trigger for the flight recorder.
func (c *Chip) startTransition(pi int, next pairPlan, suppressHook bool, now sim.Cycle, cause string) {
	old := c.curPlan[pi]
	kind := transCtx
	switch {
	case old.dmr && !next.dmr:
		kind = transLeave
	case !old.dmr && next.dmr:
		kind = transEnter
	}
	c.trans[pi] = &transition{
		startAt:      now,
		old:          old,
		next:         next,
		kind:         kind,
		suppressHook: suppressHook,
		cause:        cause,
	}
	c.transCount++
	c.drainCount++
	c.transDirty = true // Run must leave bulk stepping to poll the drain
	if old.dmr && old.vocal != nil {
		// A redundant pair drains to an agreed stream position; see
		// cpu.Core.HoldFetchAfter.
		barrier := old.vocal.Stream.MaxCursor()
		c.Cores[2*pi].HoldFetchAfter(barrier)
		c.Cores[2*pi+1].HoldFetchAfter(barrier)
		return
	}
	c.Cores[2*pi].HoldFetch()
	c.Cores[2*pi+1].HoldFetch()
}

// stepTransition advances one pair's switch.
func (c *Chip) stepTransition(pi int, now sim.Cycle) {
	tr := c.trans[pi]
	vocal, mute := c.Cores[2*pi], c.Cores[2*pi+1]
	switch tr.phase {
	case 0: // draining
		if !vocal.Drained() || !mute.Drained() {
			return
		}
		tr.doneAt = c.moveState(pi, tr, now)
		vocal.BlockUntil(tr.doneAt)
		mute.BlockUntil(tr.doneAt)
		tr.phase = 1
		c.drainCount--
		c.recordTransition(pi, tr, tr.doneAt-tr.startAt, now-tr.startAt)
	case 1: // moving
		if now < tr.doneAt {
			return
		}
		c.applyPlan(pi, tr.next, tr.suppressHook)
		c.trans[pi] = nil
		c.transCount--
	}
}

// recordTransition accumulates Table 1 statistics and emits the
// completed switch — with its cause and pipeline-drain latency — to
// the flight recorder.
func (c *Chip) recordTransition(pi int, tr *transition, dur, drain sim.Cycle) {
	kind := obs.KindCtxSwitch
	switch tr.kind {
	case transEnter:
		c.enterN++
		c.enterCycles += dur
		c.Cores[0].C.ModeSwitches++ // chip-level tally, kept on core 0
		kind = obs.KindEnterDMR
	case transLeave:
		c.leaveN++
		c.leaveCyc += dur
		c.Cores[0].C.ModeSwitches++
		kind = obs.KindLeaveDMR
	default:
		c.ctxN++
		c.ctxCycles += dur
	}
	if c.rec != nil {
		c.rec.Emit(obs.Event{
			Kind: kind, Cycle: tr.startAt, Dur: dur,
			Pair: pi, Core: 2 * pi,
			Cause: tr.cause, Arg: int64(drain),
		})
	}
}

// moveState runs the hardware state machine that saves, migrates and
// verifies VCPU state for one pair's reconfiguration, returning the
// completion cycle. Costs are not constants: every step is a sequence
// of coherent loads and stores through the real cache hierarchy, so
// Enter-DMR lands near 2.2k cycles (dominated by the mute re-loading
// and verifying state) and MMM-TP's Leave-DMR near 10k cycles
// (dominated by the line-by-line L2 flush).
func (c *Chip) moveState(pi int, tr *transition, now sim.Cycle) sim.Cycle {
	vc, mc := 2*pi, 2*pi+1
	old, next := tr.old, tr.next
	sync := c.Cfg.FingerprintLat

	switch tr.kind {
	case transEnter:
		v := next.vocal
		tV := now
		vocalReady := now
		if old.vocal == v {
			// Single-OS trap: the same VCPU switches modes. The vocal
			// stores all of its state so the mute can load and verify
			// it.
			tV = c.Eng.SaveVocal(vc, v, now)
			vocalReady = tV
		} else {
			// Consolidated switch: context switch out the performance
			// VCPU, switch in the reliable one (its image is already
			// in the scratchpad from its last Leave-DMR).
			if old.vocal != nil {
				tV = c.Eng.SaveVocal(vc, old.vocal, now)
				old.vocal.InOS = c.Cores[vc].InOS()
			}
			tV = c.Eng.RestoreVocal(vc, v, tV)
		}
		tM := now
		if old.mute != nil {
			// MMM-TP: the hardware scheduler had an independent VCPU
			// on the mute core; it is displaced and its state saved.
			tM = c.Eng.SaveVocal(mc, old.mute, now)
			old.mute.InOS = c.Cores[mc].InOS()
		}
		// Privileged-register divergence detected here is counted by
		// the engine (VerifyFailures) and surfaces in Metrics.
		tM, _ = c.Eng.EnterVerify(mc, v, tM, vocalReady)
		done := tV
		if tM > done {
			done = tM
		}
		return done + sync

	case transLeave:
		ov := old.vocal
		t0 := now + sync // final fingerprint synchronization
		tV := t0
		if next.vocal == ov {
			// Single-OS return from trap: the vocal keeps running the
			// same VCPU; both cores store their privileged state for
			// later use.
			tV = c.Eng.SaveVocalPriv(vc, ov, t0)
		} else {
			tV = c.Eng.SaveVocal(vc, ov, t0)
			ov.InOS = c.Cores[vc].InOS()
			if next.vocal != nil {
				tV = c.Eng.RestoreVocal(vc, next.vocal, tV)
			}
		}
		tM := t0
		if c.Kind == KindMMMTP {
			// The mute may next run an unrelated VCPU: save all state,
			// then flush the cache of incoherent lines one line at a
			// time (coherent dirty lines write back to the L3).
			tM = c.Eng.SaveMuteFull(mc, ov, t0)
			tM, _ = c.Hier.FlushL2(mc, tM)
		} else {
			tM = c.Eng.SaveMutePriv(mc, ov, t0)
		}
		if next.mute != nil {
			tM = c.Eng.RestoreVocal(mc, next.mute, tM)
		}
		if tM > tV {
			return tM
		}
		return tV

	default: // context switch with no mode change
		tV := now + sync
		tM := now + sync
		if old.dmr {
			// DMR-to-DMR guest switch (the DMR-base consolidated
			// server): vocal swaps images, mute saves its redundant
			// copy and verifies the incoming VCPU.
			tV = c.Eng.SaveVocal(vc, old.vocal, tV)
			old.vocal.InOS = c.Cores[vc].InOS()
			tV = c.Eng.RestoreVocal(vc, next.vocal, tV)
			tM = c.Eng.SaveMutePriv(mc, old.vocal, tM)
			tM, _ = c.Eng.EnterVerify(mc, next.vocal, tM, now)
		} else {
			// Independent-VCPU context switches on each core.
			if old.vocal != nil && old.vocal != next.vocal {
				tV = c.Eng.SaveVocal(vc, old.vocal, tV)
				old.vocal.InOS = c.Cores[vc].InOS()
			}
			if next.vocal != nil && old.vocal != next.vocal {
				tV = c.Eng.RestoreVocal(vc, next.vocal, tV)
			}
			if old.mute != nil && old.mute != next.mute {
				tM = c.Eng.SaveVocal(mc, old.mute, tM)
				old.mute.InOS = c.Cores[mc].InOS()
			}
			if next.mute != nil && old.mute != next.mute {
				tM = c.Eng.RestoreVocal(mc, next.mute, tM)
			}
		}
		if tM > tV {
			return tM
		}
		return tV
	}
}

// applyPlan reconfigures one pair: sources, spaces, coherence mode, the
// Check stage, PAB guards and attribution.
func (c *Chip) applyPlan(pi int, pl pairPlan, suppressHook bool) {
	vocal, mute := c.Cores[2*pi], c.Cores[2*pi+1]
	pair := c.Pairs[pi]
	was := c.curPlan[pi]
	// Charge cycles the cores slept (and Run skipped), stalled or idle,
	// under the old configuration before its source, gate and user/OS
	// phase change.
	vocal.WakeAt(c.Now)
	mute.WakeAt(c.Now)

	// Detach streams that stop running redundantly.
	if was.dmr && !pl.dmr && was.vocal != nil {
		was.vocal.Stream.Detach()
	}

	if pl.dmr {
		v := pl.vocal
		v.Stream.Attach()
		vocal.SetSource(v.Stream.Side(0))
		vocal.SetSpace(v.Space)
		vocal.SetGuard(nil)
		vocal.SetInOS(v.InOS)
		mute.SetSource(v.Stream.Side(1))
		mute.SetSpace(v.Space)
		mute.SetGuard(nil)
		mute.SetInOS(v.InOS)
		pair.Bind()
		c.setAttribution(2*pi, c.guestOf(v))
		c.setAttribution(2*pi+1, -1) // mute commits are duplicates
	} else {
		if was.dmr {
			pair.Unbind()
		}
		c.applyCore(vocal, pl.vocal, 2*pi)
		c.applyCore(mute, pl.mute, 2*pi+1)
	}
	vocal.Resume(suppressHook)
	mute.Resume(false)
	c.curPlan[pi] = pl
}

// applyCore configures one core to run an independent VCPU (or idle).
func (c *Chip) applyCore(core *cpu.Core, v *vcpu.VCPU, coreID int) {
	core.SetCoherent(true)
	core.SetGate(nil, 0)
	if v == nil {
		core.SetSource(nil)
		core.SetGuard(nil)
		c.setAttribution(coreID, -1)
		return
	}
	core.SetSource(v.Stream.Side(0))
	core.SetSpace(v.Space)
	core.SetInOS(v.InOS)
	if c.usePAB && v.Mode != vcpu.ModeReliable {
		core.SetGuard(c.PABs[coreID])
	} else {
		core.SetGuard(nil)
	}
	c.setAttribution(coreID, c.guestOf(v))
}

// guestOf returns the guest id of a VCPU.
func (c *Chip) guestOf(v *vcpu.VCPU) int {
	if v == nil {
		return -1
	}
	return v.Guest
}
