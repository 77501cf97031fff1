// Package reunion implements the Reunion loose lock-stepping DMR scheme
// the paper builds on (Smolens et al., MICRO 2006): a logical
// processing pair of two cores redundantly executing one instruction
// stream. The vocal core implements full coherence; the mute core loads
// through its own private hierarchy incoherently and never exposes new
// values. An added in-order Check stage computes a fingerprint of each
// instruction's outputs, exchanges it with the partner over a dedicated
// 10-cycle network, and releases the instruction for commit only when
// the fingerprints match; a mismatch — whether from a hardware fault or
// from the mute's best-effort incoherent data going stale — squashes
// both pipelines and re-executes, the same recovery as a transient
// fault.
//
// Fingerprints are compared only as self.fp != other.fp, between the two
// sides' records of one sequence number, and every record of one
// binding comes from the same trace.Shared stream: Bind and Unbind
// reset the rings, and the chip binds a pair afresh on every DMR plan
// change. Both records of a sequence number therefore describe the same
// instruction, which is what lets a core send its fingerprint XOR the
// fault-free hash of that instruction (cpu.checkFingerprint): the common
// term cancels in every comparison, so a fault-free execution hashes
// nothing and clean/clean, clean/corrupted and corrupted/corrupted pairs
// compare exactly as full fingerprints would. A gate that compared
// fingerprints across instructions would need the full hash back.
package reunion

import (
	"repro/internal/cpu"
	"repro/internal/sim"
)

// ringSize bounds how far either side can run ahead; it needs to cover
// both instruction windows plus slack.
const ringSize = 1024

// record is one side's completion record for one instruction.
type record struct {
	seq   uint64
	done  sim.Cycle
	fp    uint64
	valid bool
}

// Pair is one logical processing pair. It implements cpu.Gate.
type Pair struct {
	cfg *sim.Config

	rings [2][ringSize]record

	vocal *cpu.Core
	mute  *cpu.Core

	// Check-stage sleep registrations (CheckSleep): waiting[s] is
	// set while core s sleeps until the partner completes waitSeq[s].
	// Stale registrations are harmless — waking an already-awake core
	// (or one that re-armed a different sleep) is always safe.
	waitSeq [2]uint64
	waiting [2]bool

	// Repeated-mismatch escalation state: how many times the same
	// sequence number has mismatched in a row. Squash-and-re-execute
	// only recovers transient corruption; a persistent divergence (e.g.
	// a corrupted TLB entry re-translating to the same wrong address)
	// mismatches at the same instruction forever.
	stuckSeq uint64
	stuckN   int

	// Stats
	Checks     uint64
	Mismatches uint64

	// OnMismatch, when non-nil, observes every fingerprint mismatch.
	OnMismatch func(seq uint64, now sim.Cycle)
	// OnUnrecoverable fires when the same instruction mismatches
	// stuckLimit times in a row — the detected-unrecoverable case. The
	// handler (the MMM layer's machine-check path) must repair the
	// divergence source or the pair will fire again.
	OnUnrecoverable func(seq uint64, now sim.Cycle)
}

// stuckLimit is how many consecutive mismatches of one instruction
// escalate from squash-and-retry to a machine check.
const stuckLimit = 4

// NewPair creates a pair gate for the given cores. The cores are not
// reconfigured here; callers (the MMM layer) call Bind/Unbind to enter
// and leave DMR mode.
func NewPair(cfg *sim.Config, vocal, mute *cpu.Core) *Pair {
	return &Pair{
		cfg:   cfg,
		vocal: vocal,
		mute:  mute,
	}
}

// Vocal returns the vocal (master) core.
func (p *Pair) Vocal() *cpu.Core { return p.vocal }

// Mute returns the mute (slave) core.
func (p *Pair) Mute() *cpu.Core { return p.mute }

// Bind activates the Check stage on both cores: the vocal stays
// coherent, the mute switches to the incoherent request path. Both
// windows must be drained.
func (p *Pair) Bind() {
	p.reset()
	p.vocal.SetGate(p, 0)
	p.vocal.SetCoherent(true)
	p.mute.SetGate(p, 1)
	p.mute.SetCoherent(false)
}

// Unbind deactivates the Check stage (Leave-DMR). The mute core is
// returned to the coherent path; its incoherent cache contents must be
// flushed by the caller before it runs independent software.
func (p *Pair) Unbind() {
	p.vocal.SetGate(nil, 0)
	p.mute.SetGate(nil, 0)
	p.mute.SetCoherent(true)
	p.reset()
}

func (p *Pair) reset() {
	for s := range p.rings {
		for i := range p.rings[s] {
			p.rings[s][i].valid = false
		}
	}
	p.stuckSeq, p.stuckN = 0, 0
	p.waiting[0], p.waiting[1] = false, false
}

func (p *Pair) core(side int) *cpu.Core {
	if side == 0 {
		return p.vocal
	}
	return p.mute
}

// Complete records that side finished executing seq at cycle done with
// fingerprint fp (cpu.Gate). If the partner core is sleeping until this
// instruction's record arrives, it is woken.
func (p *Pair) Complete(side int, seq uint64, done sim.Cycle, fp uint64) {
	p.rings[side][seq%ringSize] = record{seq: seq, done: done, fp: fp, valid: true}
	if p.waiting[1-side] && p.waitSeq[1-side] == seq {
		p.waiting[1-side] = false
		p.core(1 - side).WakeCheck()
	}
}

// CheckSleep classifies the Check-stage wait for seq on side without
// CommitReady's counter side effects (cpu.Gate). A partner-missing wait
// registers the core for a wake on the partner's Complete.
func (p *Pair) CheckSleep(side int, seq uint64) (sim.Cycle, int) {
	self := &p.rings[side][seq%ringSize]
	other := &p.rings[1-side][seq%ringSize]
	if !self.valid || self.seq != seq {
		return 0, cpu.CheckNoSleep
	}
	if !other.valid || other.seq != seq {
		p.waitSeq[side] = seq
		p.waiting[side] = true
		return 0, cpu.CheckWaitPartner
	}
	if self.fp != other.fp {
		return 0, cpu.CheckNoSleep // the next live poll squashes
	}
	done := self.done
	if other.done > done {
		done = other.done
	}
	return done + p.cfg.FingerprintLat, cpu.CheckWaitRelease
}

// CreditWait replays the per-poll counters of n slept CommitReady polls
// of a matched instruction, waiting for the fingerprint network or, for
// a store, for its write-through (cpu.Gate).
func (p *Pair) CreditWait(n uint64) {
	p.Checks += n
}

// CommitReady implements the Check stage (cpu.Gate): instruction seq on
// side may commit once both sides have executed it and the fingerprints
// have crossed the dedicated network and compared equal. A mismatch
// squashes both cores; the instruction re-executes and is re-checked.
func (p *Pair) CommitReady(side int, seq uint64, now sim.Cycle) (sim.Cycle, bool) {
	self := &p.rings[side][seq%ringSize]
	other := &p.rings[1-side][seq%ringSize]
	if !self.valid || self.seq != seq {
		return 0, false
	}
	if !other.valid || other.seq != seq {
		return 0, false // partner has not executed it yet
	}
	p.Checks++
	if self.fp != other.fp {
		// Fingerprint mismatch: detected fault (or stale incoherent
		// data). Instructions from seq onward squash on both cores and
		// re-execute; architected state was never updated. Older
		// instructions already passed their check and may still
		// commit, so their records are preserved.
		p.Mismatches++
		p.vocal.C.FPMismatches++
		if seq == p.stuckSeq {
			p.stuckN++
		} else {
			p.stuckSeq, p.stuckN = seq, 1
		}
		if p.OnMismatch != nil {
			p.OnMismatch(seq, now)
		}
		for s := range p.rings {
			for i := range p.rings[s] {
				if p.rings[s][i].valid && p.rings[s][i].seq >= seq {
					p.rings[s][i].valid = false
				}
			}
		}
		p.vocal.Squash(now, seq)
		p.mute.Squash(now, seq)
		if p.stuckN >= stuckLimit && p.OnUnrecoverable != nil {
			p.stuckSeq, p.stuckN = 0, 0
			p.OnUnrecoverable(seq, now)
		}
		return 0, false
	}
	// The later of the two executions sends its fingerprint; the
	// instruction commits when that fingerprint arrives at the other
	// side.
	done := self.done
	if other.done > done {
		done = other.done
	}
	return done + p.cfg.FingerprintLat, true
}
