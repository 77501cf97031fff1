// Package cpu implements the out-of-order core timing model: a 2-wide,
// 128-entry-window pipeline with a 32-load/32-store queue, sequential
// consistency (stores hold their window slot until the write-through
// completes — the paper's largest single source of Reunion overhead),
// serializing instructions that drain the pipeline and stall fetch, a
// hardware-filled TLB, and an optional Check stage that gates commit on
// the partner core's fingerprint when Dual-Modular Redundancy is
// active.
//
// Stalled and idle cycles cost next to nothing to simulate. When a Tick
// proves every stage inert for a span of cycles, the core sleeps: it
// records what one slept cycle adds to its counters and the first cycle
// it owes, and charges the whole span in one step (settle) when it is
// next ticked, read (SettleTo) or reconfigured (WakeAt). An idle core,
// one with no instruction source, is one more such sleep: it sleeps with
// no deadline until a new source wakes it, and its span settles as idle
// cycles. A chip's run loop may therefore skip a sleeping core until
// SkipUntil instead of ticking it every cycle.
package cpu

import (
	"repro/internal/cache"
	"repro/internal/isa"
	"repro/internal/paging"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Source supplies the dynamic instruction stream of the software thread
// scheduled on a core. Fetch reads the head of the stream with Peek,
// which must not advance it, and takes the instruction with Consume,
// which advances past exactly the instruction Peek returned.
type Source interface {
	Peek() isa.Inst
	Consume()
}

// Gate couples the two cores of a DMR pair at the Check stage. The core
// reports every completed instruction (Complete) and asks permission to
// commit (CommitReady); the gate implementation (package reunion)
// compares fingerprints and squashes both cores on a mismatch. The
// fingerprint a core reports is relative to the fault-free hash of the
// instruction (checkFingerprint), so a gate may only compare the two
// sides' fingerprints of one instruction, and only for equality. A core
// sleeps through Check-stage waits, and through a checked store's
// write-through, instead of polling CommitReady every cycle: CheckSleep
// classifies the wait, and CreditWait replays the per-poll counters the
// slept cycles would have incremented.
type Gate interface {
	Complete(side int, seq uint64, done sim.Cycle, fp uint64)
	CommitReady(side int, seq uint64, now sim.Cycle) (at sim.Cycle, ok bool)
	// CheckSleep classifies the wait for seq without the counter side
	// effects of CommitReady. A CheckWaitPartner return registers the
	// core for a wake call when the partner completes seq.
	CheckSleep(side int, seq uint64) (at sim.Cycle, state int)
	// CreditWait replays the per-poll Check-stage counters for n slept
	// cycles whose polls would have matched: a CheckWaitRelease wait,
	// or the write-through of a store that passed the check.
	CreditWait(n uint64)
}

// Check-stage sleep states reported by a Gate's CheckSleep.
const (
	// CheckNoSleep: the wait's outcome cannot be predicted (or a
	// mismatch is pending); the core must keep polling CommitReady.
	CheckNoSleep = iota
	// CheckWaitPartner: the partner has not executed the instruction
	// yet. The gate registered the core for a wake call on the partner's
	// Complete, so the core may sleep with no deadline.
	CheckWaitPartner
	// CheckWaitRelease: both executions matched; the commit-release
	// cycle is known and poll-invariant. The core may sleep until it,
	// owing the gate one per-poll counter credit per slept cycle.
	CheckWaitRelease
)

// StoreGuard re-validates the permission of performance-mode stores
// before they reach the L2 — the Protection Assistance Buffer. It
// returns any extra latency (serial lookups, PAB miss refills) and
// whether the store violates the PAT and must raise an exception.
type StoreGuard interface {
	CheckStore(core int, pa uint64, now sim.Cycle) (extra sim.Cycle, fault bool)
}

// entry is one in-flight instruction in the window.
type entry struct {
	inst        isa.Inst
	pa          uint64
	issued      bool
	done        sim.Cycle
	storeIssued bool
	storeDone   sim.Cycle
	// prefetchDone is when the store's exclusive-ownership prefetch
	// (issued at execute, off the critical path) completes.
	prefetchDone sim.Cycle
}

// readyUnknown marks an entry whose producer has not issued yet, so its
// wake-up cycle cannot be cached.
const readyUnknown = ^sim.Cycle(0)

const (
	histSize  = 512 // completion history for dependency tracking
	scanDepth = 24  // max unissued entries examined per cycle
)

// Core is one physical core of the chip.
type Core struct {
	ID  int
	cfg *sim.Config

	hier  *cache.Hierarchy
	TLB   *paging.TLB
	Space *paging.Space

	src Source

	// Mode. A coherent core participates in the MOSI protocol; a mute
	// core (Coherent=false) uses the incoherent best-effort path. The
	// gate is non-nil exactly when the Check stage is active (DMR).
	coherent bool
	gate     Gate
	side     int
	guard    StoreGuard

	// Window (ring buffer) and scheduler state. The per-entry fields the
	// issue scan touches every cycle live in flat parallel arrays rather
	// than in the 80-byte entry struct: a scan over scanDepth blocked
	// entries then reads a few compact cache lines instead of one line
	// per entry.
	//
	// readyAts caches each entry's earliest issue cycle (0 when the
	// entry has no pending producer, the producer's completion cycle
	// once the producer has issued, readyUnknown while the producer sits
	// unissued — re-resolved each scan by readySlow). prodSeqs is the
	// producer sequence number readySlow resolves against, computed once
	// at insert. classes mirrors each entry's instruction class for the
	// serializing-instruction check.
	win      []entry
	readyAts []sim.Cycle
	prodSeqs []uint64
	classes  []isa.Class
	head     int
	count    int
	unissued []int

	lsqLoads  int
	lsqStores int

	// issueWakeAt sleeps the issue scan: set when a full scan issued
	// nothing and every blocked entry's earliest wake-up is known, so
	// re-scanning before that cycle is provably fruitless. Invalidated
	// by fetch (a new entry may be instantly ready) and by squashes.
	issueWakeAt sim.Cycle

	// sleepUntil sleeps the whole pipeline walk: armSleep sets it when,
	// at the end of a Tick, every stage is provably inert — commit
	// blocked on a known completion cycle (or the window empty), the
	// issue scan asleep, fetch stalled on a known or externally-released
	// condition — or the core idle. Until then a Tick only settles
	// counters. readyUnknown means no deadline: an external wake (the
	// partner's completion, Resume, a new source) ends the sleep. Any
	// external mutation of pipeline state (source/gate changes, holds,
	// resumes, blocks, squashes) clears it; 0 when awake.
	sleepUntil sim.Cycle
	// owedFrom is the first slept cycle whose counters are not charged
	// yet (0: nothing owed). settle charges the span up to a given cycle
	// at the per-cycle deltas below, plus Cycles and the idle/OS/user
	// split by source and inOS (an idle span charges no deltas). An
	// external wake leaves the span owed; the next Tick, or
	// SettleTo/WakeAt, charges it. Of the state external events change,
	// only the gate, the source and inOS bear on what a slept cycle
	// charges, so a reconfiguration calls WakeAt first.
	owedFrom sim.Cycle
	sleepFS  uint64 // per-cycle FetchStallCycles while asleep (0/1)
	sleepSI  uint64 // per-cycle SIStallCycles while asleep (0/1)
	sleepWF  uint64 // per-cycle WindowFullCycles while asleep (0/1)
	sleepSS  uint64 // per-cycle StoreCommitStall while asleep (0/1)
	sleepCW  uint64 // per-cycle CheckWaitCycles while asleep (0/1)
	sleepFP  uint64 // per-cycle FingerprintChecks while asleep (0/1)
	// sleepCredit marks a sleep through matched Check-stage polls: each
	// slept cycle also owes the gate one CommitReady poll's counter
	// increments, which settle passes to Gate.CreditWait.
	sleepCredit bool

	// TSO store buffer: completion times of posted (committed but not
	// yet drained) stores. Empty and unused under SC.
	storeBuf []sim.Cycle

	fetchBlockedUntil sim.Cycle
	serializers       int // SIs (and trap markers) in flight: fetch stalls
	fetchHold         bool
	fetchBarrier      uint64 // stop fetching beyond this sequence number
	suppressTrapHook  bool

	curFetchLine uint64
	faultFlip    uint64 // XOR applied to the next executed result (fault injection)
	inOS         bool   // committed-phase tracking (user vs OS cycles, Table 2)

	// peeked caches the head-of-stream instruction across fetch attempts
	// so a cycle that stalls on a full load/store queue does not re-run
	// the stream's Peek path. Invalidated when the instruction is
	// consumed or the source changes; Peek is pure, so the cache can
	// never go stale otherwise.
	peeked  isa.Inst
	hasPeek bool

	// OnTrapEnter fires when a TrapEnter is about to be fetched;
	// returning true holds fetch (a mode transition is in progress and
	// the MMM layer will call Resume). OnTrapReturn fires right after
	// a TrapReturn commits, with the same contract.
	OnTrapEnter  func(c *Core) bool
	OnTrapReturn func(c *Core) bool

	// OnSilentFault fires when an injected result corruption lands on
	// an execution with no Check stage to compare it against — the
	// silent-data-corruption case reliability evaluation scores.
	OnSilentFault func(c *Core, now sim.Cycle)

	C stats.CoreCounters

	// Completion history for dependency tracking, 8 KB together. Last,
	// so the fields Chip.Run and Tick read on every cycle (sleepUntil
	// first) stay in the struct's first cache lines.
	histDone [histSize]sim.Cycle
	histSeq  [histSize]uint64
}

// New creates a core wired to the shared memory hierarchy.
func New(id int, cfg *sim.Config, hier *cache.Hierarchy) *Core {
	return &Core{
		ID:       id,
		cfg:      cfg,
		hier:     hier,
		TLB:      paging.NewTLB(cfg.TLBEntries),
		coherent: true,
		win:      make([]entry, cfg.WindowSize),
		readyAts: make([]sim.Cycle, cfg.WindowSize),
		prodSeqs: make([]uint64, cfg.WindowSize),
		classes:  make([]isa.Class, cfg.WindowSize),
	}
}

// SetSource assigns the instruction stream (nil idles the core). The
// window must be drained first; scheduling layers guarantee this.
func (c *Core) SetSource(src Source) {
	if src != nil && c.count != 0 {
		panic("cpu: SetSource with non-empty window")
	}
	c.src = src
	c.curFetchLine = ^uint64(0)
	c.hasPeek = false
	c.wake()
}

// SetSpace assigns the active address space.
func (c *Core) SetSpace(s *paging.Space) { c.Space = s }

// SetGate enables (non-nil) or disables the DMR Check stage. side is
// the core's position in the pair (0 = vocal, 1 = mute).
func (c *Core) SetGate(g Gate, side int) {
	c.wake()
	c.gate = g
	c.side = side
}

// SetCoherent selects the coherent (vocal / performance-mode) or
// incoherent (mute) memory request path.
func (c *Core) SetCoherent(coherent bool) { c.coherent = coherent }

// Coherent reports the current request path.
func (c *Core) Coherent() bool { return c.coherent }

// SetGuard installs the store-permission checker (the PAB) used while
// the core runs in performance mode; nil removes it.
func (c *Core) SetGuard(g StoreGuard) {
	c.guard = g
	c.wake()
}

// Drained reports whether the window is empty (required before any
// mode transition or context switch).
func (c *Core) Drained() bool { return c.count == 0 }

// Idle reports whether the core has no work source.
func (c *Core) Idle() bool { return c.src == nil }

// HoldFetch stops instruction fetch (the window keeps draining).
func (c *Core) HoldFetch() {
	c.fetchHold = true
	c.wake()
}

// HoldFetchAfter lets fetch continue up to and including sequence
// number seq, then holds. The two cores of a DMR pair must drain to an
// agreed stream position: if both simply stopped fetching, the core
// that had fetched further could never commit (the Check stage would
// wait forever for partner executions that never happen).
func (c *Core) HoldFetchAfter(seq uint64) {
	c.wake()
	if seq == 0 {
		c.fetchHold = true
		return
	}
	c.fetchBarrier = seq
}

// Resume releases a fetch hold. If suppressHook is set, the next
// TrapEnter fetched will not re-fire OnTrapEnter (it is the very trap
// whose transition just completed).
func (c *Core) Resume(suppressHook bool) {
	c.fetchHold = false
	c.fetchBarrier = 0
	c.suppressTrapHook = suppressHook
	c.wake()
}

// BlockUntil stalls fetch until the given cycle (mode-transition
// latency charged to this core).
func (c *Core) BlockUntil(when sim.Cycle) {
	if when > c.fetchBlockedUntil {
		c.fetchBlockedUntil = when
	}
	// Extending the fetch block can change which stall counter a
	// sleeping cycle would charge; re-arm from the next full Tick.
	c.wake()
}

// InjectResultFault arranges for the next executed instruction's result
// to be XORed with mask, modeling a transient computation error.
func (c *Core) InjectResultFault(mask uint64) { c.faultFlip = mask }

// Squash flushes in-flight instructions with sequence number >= fromSeq
// (they re-execute from the window) and charges the recovery penalty.
// Committed state is never affected — that is the point of detecting at
// the Check stage. Older in-flight instructions already validated by
// the Check stage are left to commit normally.
func (c *Core) Squash(now sim.Cycle, fromSeq uint64) {
	for i := 0; i < c.count; i++ {
		idx := (c.head + i) % len(c.win)
		e := &c.win[idx]
		if e.inst.Seq < fromSeq {
			continue
		}
		if e.issued {
			h := e.inst.Seq % histSize
			if c.histSeq[h] == e.inst.Seq {
				c.histSeq[h] = ^uint64(0)
			}
		}
		e.issued = false
		e.storeIssued = false
		e.done = 0
		// A squashed producer re-executes with a new completion time, and
		// every dependent of a squashed producer is itself squashed (it is
		// younger), so dropping the cache here keeps readyAt consistent.
		c.readyAts[idx] = readyUnknown
	}
	// Rebuild the pending-issue list in program order.
	c.unissued = c.unissued[:0]
	for i := 0; i < c.count; i++ {
		idx := (c.head + i) % len(c.win)
		if !c.win[idx].issued {
			c.unissued = append(c.unissued, idx)
		}
	}
	c.issueWakeAt = 0 // re-executed entries change the scan set
	c.wake()
	c.BlockUntil(now + c.cfg.RecoveryPenalty)
	c.C.Recoveries++
}

// wake ends any armed pipeline sleep. It is called by every external
// event that could change what the sleeping pipeline would do (and by
// WakeCheck when the DMR partner completes a waited-on instruction);
// waking a core that could in fact have kept sleeping is always safe —
// a full Tick on a sleepable cycle performs exactly the increments the
// sleep would have. The slept span stays owed until the next Tick (or
// SettleTo/WakeAt) charges it. That is exact whichever core wakes
// which: a core woken mid-cycle by a lower-ID core has not ticked this
// cycle and walks it; one woken by a higher-ID core slept this cycle,
// and its next Tick settles through it.
func (c *Core) wake() { c.sleepUntil = 0 }

// WakeCheck ends a Check-stage sleep early: the gate calls it when the
// partner completes the instruction the core is waiting on.
func (c *Core) WakeCheck() { c.wake() }

// SettleTo charges the slept cycles before now to the counters (and
// the gate) without ending the sleep, so an external reader (metrics
// collection, measurement reset) observes settled counters.
func (c *Core) SettleTo(now sim.Cycle) { c.settle(now) }

// WakeAt charges the slept cycles before now and ends the sleep. A
// caller that skips sleeping cores must call it before changing the
// core's source, gate or user/OS phase at cycle now, so the owed
// cycles are charged under the state they were slept in.
func (c *Core) WakeAt(now sim.Cycle) {
	c.settle(now)
	c.owedFrom = 0
	c.sleepUntil = 0
}

// SkipUntil returns the cycle at which a sleeping core next needs a
// Tick, or 0 when it is awake. Ticks before it only settle counters,
// which a later Tick, SettleTo or WakeAt does in one step, so a run
// loop may skip the core until then.
func (c *Core) SkipUntil() sim.Cycle { return c.sleepUntil }

// Tick advances the core by one cycle: commit, issue, fetch.
func (c *Core) Tick(now sim.Cycle) {
	// Pipeline sleep: a previous Tick proved every stage inert until
	// sleepUntil, so the cycle reduces to charging its counters.
	if now < c.sleepUntil {
		c.settle(now + 1)
		return
	}
	if c.owedFrom != 0 {
		c.WakeAt(now) // the sleep expired or was ended externally
	}
	c.C.Cycles++
	if c.src == nil {
		// An idle core sleeps with no deadline: SetSource, like every
		// reconfiguration, wakes it, and settle charges the span idle.
		c.C.IdleCycles++
		c.sleepUntil, c.owedFrom = readyUnknown, now+1
		return
	}
	if c.inOS {
		c.C.OSCycles++
	} else {
		c.C.UserCycles++
	}
	c.commit(now)
	c.issue(now)
	c.fetch(now)
	c.armSleep(now)
}

// settle charges the owed slept cycles before to: each adds Cycles,
// then IdleCycles, OSCycles or UserCycles by the (unchanging) source and
// phase, as Tick does, and a busy core's sleep also charges its
// per-cycle stall, fingerprint and gate-poll deltas.
func (c *Core) settle(to sim.Cycle) {
	if c.owedFrom == 0 || to <= c.owedFrom {
		return
	}
	n := uint64(to - c.owedFrom)
	c.owedFrom = to
	c.C.Cycles += n
	if c.src == nil {
		c.C.IdleCycles += n
		return
	}
	if c.inOS {
		c.C.OSCycles += n
	} else {
		c.C.UserCycles += n
	}
	c.C.FetchStallCycles += n * c.sleepFS
	c.C.SIStallCycles += n * c.sleepSI
	c.C.WindowFullCycles += n * c.sleepWF
	c.C.StoreCommitStall += n * c.sleepSS
	c.C.CheckWaitCycles += n * c.sleepCW
	c.C.FingerprintChecks += n * c.sleepFP
	if c.sleepCredit {
		c.gate.CreditWait(n)
	}
}

// armSleep inspects the pipeline after a full Tick and, when every
// stage is provably inert for a span of cycles, arms the Tick-level
// sleep for that span. "Inert" means the stage takes the same early
// exit on every cycle of the span, mutating nothing but its counters:
// commit blocked on the head's known completion (or on an unissued head
// that the sleeping issue scan cannot execute), on a Check-stage wait,
// or on a checked SC store's write-through, or the window empty; issue
// asleep on issueWakeAt; and fetch stalled on a hold, a known block
// cycle, in-flight serializers, or a full window/load-store queue. The
// sleep records the counters one such cycle increments, and settle
// charges them. A Check-stage wait for the partner's execution and an
// empty window's fetch hold sleep with no deadline (the gate's wake and
// Resume end them); a mismatch pending and the TSO store buffer's
// per-cycle drain never sleep. External events that could wake a stage
// early (Resume, BlockUntil, Squash, source/gate changes) clear
// sleepUntil.
func (c *Core) armSleep(now sim.Cycle) {
	wake := readyUnknown
	var fs, si, wf, ss, cw, fp uint64
	credit := false
	// waker records that an external event is guaranteed to end the
	// sleep (the gate's wake on partner completion, or Resume), which
	// permits arming with no deadline.
	waker := false
	// Commit: the head entry must stay blocked for the whole span.
	e := &c.win[c.head]
	switch {
	case c.count == 0:
		// Nothing to commit or issue, so only fetch can end the stall;
		// a fetch hold ends only by Resume, which wakes the core.
		waker = c.fetchHold
	case !e.issued:
		// Only the (sleeping) issue scan can unblock it; the issue
		// check below guarantees a finite wake in that case.
	case e.done > now:
		wake = e.done
	case c.gate != nil:
		// Check stage. The gate classifies the wait without CommitReady's
		// per-poll counter effects; the sleep's deltas reproduce them.
		at, state := c.gate.CheckSleep(c.side, e.inst.Seq)
		switch {
		case state == CheckWaitPartner:
			cw = 1
			waker = true
		case state != CheckWaitRelease:
			return // mismatch pending: the live poll must squash
		case at > now+1:
			wake = at
			cw = 1
			credit = true
		case at <= now && e.inst.Class == isa.Store && !c.cfg.TSO &&
			e.storeIssued && e.storeDone > now:
			// A checked SC store writing through: every poll until
			// storeDone passes the check (one gate poll credit and one
			// fingerprint check) and stalls on the store.
			wake = e.storeDone
			ss, fp = 1, 1
			credit = true
		default:
			return // commit (or the store's write-through) starts next cycle
		}
	case e.inst.Class == isa.Store:
		if c.cfg.TSO || !e.storeIssued || e.storeDone <= now {
			return // per-cycle buffer drain, or progress next cycle
		}
		wake = e.storeDone
		ss = 1
	default:
		return // head is retirable: commit progresses next cycle
	}
	// Issue: the scan must be asleep (or have nothing to scan).
	if len(c.unissued) > 0 {
		if c.issueWakeAt <= now {
			return
		}
		if c.issueWakeAt < wake {
			wake = c.issueWakeAt
		}
	}
	// Fetch: must be stalled on a stable condition.
	switch {
	case c.fetchHold:
		fs = 1
	case c.fetchBlockedUntil > now:
		if c.fetchBlockedUntil < wake {
			wake = c.fetchBlockedUntil
		}
		fs = 1
	case c.serializers > 0:
		si = 1
	case c.count == len(c.win):
		wf = 1
	case c.fetchBarrier != 0 || !c.hasPeek:
		return
	case c.peeked.Class == isa.Load && c.lsqLoads >= c.cfg.LoadQueue:
		wf = 1
	case c.peeked.Class == isa.Store && c.lsqStores >= c.cfg.StoreQueue:
		wf = 1
	default:
		return // fetch can make progress next cycle
	}
	if wake == readyUnknown {
		if !waker {
			return // nothing bounds the sleep and nothing would end it
		}
	} else if wake <= now+1 {
		return
	}
	c.sleepUntil = wake
	c.owedFrom = now + 1
	c.sleepFS, c.sleepSI, c.sleepWF, c.sleepSS, c.sleepCW, c.sleepFP = fs, si, wf, ss, cw, fp
	c.sleepCredit = credit
}

// --- commit --------------------------------------------------------------

func (c *Core) commit(now sim.Cycle) {
	for n := 0; n < c.cfg.CommitWidth; n++ {
		if c.count == 0 {
			return
		}
		e := &c.win[c.head]
		if !e.issued || e.done > now {
			return
		}
		// Check stage: wait for the partner's fingerprint.
		if c.gate != nil {
			at, ok := c.gate.CommitReady(c.side, e.inst.Seq, now)
			if !ok || at > now {
				c.C.CheckWaitCycles++
				return
			}
			c.C.FingerprintChecks++
		}
		// Sequential consistency: the store performs its write-through
		// at commit and holds its window slot until the write is in
		// the cache. Under TSO the store retires into a store buffer
		// and drains in the background; commit blocks only when the
		// buffer is full.
		if e.inst.Class == isa.Store {
			if !e.storeIssued {
				c.issueStore(e, now)
			}
			if c.cfg.TSO {
				if !c.postStore(e.storeDone, now) {
					c.C.StoreCommitStall++
					return
				}
			} else if e.storeDone > now {
				c.C.StoreCommitStall++
				return
			}
		}
		c.retire(e, now)
	}
}

// postStore places a committed store's completion into the TSO store
// buffer, reporting false when the buffer is full (commit must wait).
func (c *Core) postStore(done, now sim.Cycle) bool {
	// Drain completed entries.
	kept := c.storeBuf[:0]
	for _, t := range c.storeBuf {
		if t > now {
			kept = append(kept, t)
		}
	}
	c.storeBuf = kept
	if len(c.storeBuf) >= c.cfg.StoreBufferEntries {
		return false
	}
	c.storeBuf = append(c.storeBuf, done)
	return true
}

// issueStore starts the write-through for the store at the head of the
// window, consulting the PAB first when in performance mode.
func (c *Core) issueStore(e *entry, now sim.Cycle) {
	e.storeIssued = true
	start := now
	if c.gate != nil {
		// Under Reunion the fingerprint interval closes at the store:
		// its address and value must be validated with the partner
		// before the write becomes globally visible, costing a
		// sync-request round trip on the fingerprint network per store
		// (this serialization is why sequential consistency is so
		// expensive for Reunion — Smolens reports 30% on average).
		start += 2 * c.cfg.FingerprintLat
	}
	if c.guard != nil {
		// The PAB re-validates every store a performance-mode core
		// emits — including a performance guest VM's own privileged
		// code, which also runs unprotected in consolidated mode.
		extra, fault := c.guard.CheckStore(c.ID, e.pa, now)
		start += extra
		if fault {
			// The PAB (or TLB) denied the store: an exception is
			// raised before corruption occurs and the write never
			// reaches the L2.
			c.C.PABExceptions++
			e.storeDone = start
			return
		}
	}
	// The line was (pre-)acquired in Modified state at execute. The
	// write-through begins once the permission check and any pending
	// ownership acquisition complete, then pays the L2 write latency.
	if e.prefetchDone > start {
		start = e.prefetchDone
	}
	e.storeDone = start + c.cfg.L2HitLat
	c.C.StoreLatCycles += e.storeDone - now
}

// retire removes the head instruction from the window and updates
// architectural counters.
func (c *Core) retire(e *entry, now sim.Cycle) {
	c.C.Commits++
	if e.inst.Priv {
		c.C.OSCommits++
	} else {
		c.C.UserCommits++
	}
	switch e.inst.Class {
	case isa.Load:
		c.lsqLoads--
		c.C.Loads++
	case isa.Store:
		c.lsqStores--
		c.C.Stores++
	case isa.Branch:
		c.C.Branches++
	case isa.Serializing:
		c.C.SerializingInsts++
		c.serializers--
	case isa.TrapEnter:
		c.C.TrapEntries++
		c.serializers--
		c.inOS = true
	case isa.TrapReturn:
		c.C.TrapReturns++
		c.serializers--
		c.inOS = false
	}
	cls := e.inst.Class
	c.head = (c.head + 1) % len(c.win)
	c.count--
	// The head moved: a serializer blocked behind it may have reached
	// the head, so a sleeping issue scan must take another look.
	c.issueWakeAt = 0
	if cls == isa.TrapReturn && c.OnTrapReturn != nil {
		if c.OnTrapReturn(c) {
			c.fetchHold = true
		}
	}
}

// --- issue ---------------------------------------------------------------

func (c *Core) issue(now sim.Cycle) {
	n := len(c.unissued)
	if n == 0 {
		return
	}
	if c.issueWakeAt > now {
		// A previous scan proved nothing can issue before issueWakeAt
		// and no fetch or squash has touched the scan set since.
		return
	}
	limit := n
	if limit > scanDepth {
		limit = scanDepth
	}
	width := c.cfg.IssueWidth
	minWake := readyUnknown
	// The window head cannot move during issue (commit ran already), so
	// the committed-producer check in readySlow resolves against one
	// hoisted sequence number for the whole scan.
	oldest := c.win[c.head].inst.Seq
	issued, w, i := 0, 0, 0
	for ; i < limit; i++ {
		idx := c.unissued[i]
		// Readiness fast path (the memoized wake-up cycle, kept in a
		// flat array so a blocked scan touches compact memory, not one
		// entry struct per element); readySlow resolves entries whose
		// producer had not issued at the last look.
		ra := c.readyAts[idx]
		if ra > now {
			if ra == readyUnknown && c.readySlow(idx, oldest, now) {
				goto issuable
			}
			// Blocked. An entry waiting on an unissued producer keeps
			// readyAt == readyUnknown, which cannot lower minWake — and
			// needs no wake of its own: its producer sits earlier in
			// this same scan set, so it cannot issue before minWake
			// either.
			if ra = c.readyAts[idx]; ra < minWake {
				minWake = ra
			}
			if w < i {
				c.unissued[w] = idx
			}
			w++
			continue
		}
	issuable:
		// Serializing instructions (and trap markers) execute only
		// from the head of a drained window. The head only moves when
		// retire runs, and retire re-opens the scan (clears
		// issueWakeAt), so a blocked serializer does not forbid
		// sleeping: nothing about it can change while the scan sleeps.
		if serializes(c.classes[idx]) && idx != c.head {
			if w < i {
				c.unissued[w] = idx
			}
			w++
			continue
		}
		c.execute(&c.win[idx], now)
		if issued++; issued >= width {
			i++
			break
		}
	}
	if i == w {
		// Nothing issued: the pending list is untouched. Sleep the scan
		// until the earliest known wake-up. When no blocked entry has a
		// known wake (all wait on unissued producers or on reaching the
		// head), the scan sleeps indefinitely: the only events that can
		// change its outcome — a fetch, a squash, or the head advancing —
		// all clear issueWakeAt.
		c.issueWakeAt = minWake
		return
	}
	// Close the gaps left by issued entries; the tail beyond the scan
	// depth shifts down unexamined, preserving program order.
	c.unissued = c.unissued[:w+copy(c.unissued[w:], c.unissued[i:])]
}

// serializes reports whether a class must reach the window head before
// executing.
func serializes(cl isa.Class) bool {
	return cl == isa.Serializing || cl == isa.TrapEnter || cl == isa.TrapReturn
}

// readySlow resolves the producer dependency of an entry whose wake-up
// cycle is still unknown, memoizing it in readyAts once the producer
// has issued. The issue loop's inlined readyAt comparison answers every
// later scan in one load, which matters because the scan re-examines up
// to scanDepth entries on every cycle of a stall. The producer sequence
// number was precomputed at insert (prodSeqs, 0 when the entry has no
// producer), so resolution never touches the entry struct.
func (c *Core) readySlow(idx int, oldest uint64, now sim.Cycle) bool {
	pseq := c.prodSeqs[idx]
	if pseq < oldest {
		c.readyAts[idx] = 0
		return true // no producer, or it committed long ago
	}
	h := pseq % histSize
	if c.histSeq[h] != pseq {
		return false // producer in window but not yet issued
	}
	ra := c.histDone[h]
	c.readyAts[idx] = ra
	return ra <= now
}

// execute models the execution of one instruction: functional units,
// TLB, memory hierarchy, branch redirect, fault injection and
// fingerprint generation. A DMR core's fingerprint is relative to the
// fault-free hash of the instruction (checkFingerprint), which is exact
// only because the Check stage compares the two sides' fingerprints of
// one instruction and nothing else (see package reunion).
func (c *Core) execute(e *entry, now sim.Cycle) {
	e.issued = true
	switch e.inst.Class {
	case isa.Load:
		start := now + c.translate(e)
		if c.coherent {
			e.done, _ = c.hier.Load(c.ID, e.pa, start)
		} else {
			e.done, _ = c.hier.IncoherentLoad(c.ID, e.pa, start)
		}
		c.C.LoadLatCycles += e.done - start
	case isa.Store:
		// Address generation and translation. Sequential consistency
		// makes the write itself happen at commit, but the core
		// prefetches exclusive ownership of the line now, off the
		// critical path (standard for SC out-of-order designs).
		start := now + c.translate(e)
		e.done = start + e.inst.Class.Latency()
		if c.coherent {
			e.prefetchDone, _ = c.hier.Store(c.ID, e.pa, start)
		} else {
			e.prefetchDone, _ = c.hier.IncoherentStore(c.ID, e.pa, start)
		}
	case isa.Branch:
		e.done = now + e.inst.Class.Latency()
		if e.inst.Misp {
			c.C.Mispredicts++
			c.BlockUntil(e.done + c.cfg.MispredictPenalty)
		}
	case isa.Serializing:
		e.done = now + e.inst.Class.Latency()
		if c.gate != nil {
			// The SI must be validated before younger instructions
			// enter the pipeline: an extra fingerprint round trip.
			e.done += c.cfg.SerializeFPLat
		}
	default:
		e.done = now + e.inst.Class.Latency()
	}

	h := e.inst.Seq % histSize
	c.histSeq[h] = e.inst.Seq
	c.histDone[h] = e.done

	if c.gate != nil {
		c.gate.Complete(c.side, e.inst.Seq, e.done, checkFingerprint(&e.inst, c.faultFlip, e.pa))
		c.faultFlip = 0
	} else if c.faultFlip != 0 {
		// Unprotected execution: the corruption lands silently (no
		// fingerprint comparison exists to catch it).
		e.inst.Result ^= c.faultFlip
		c.faultFlip = 0
		if c.OnSilentFault != nil {
			c.OnSilentFault(c, now)
		}
	}
}

// checkFingerprint is what a DMR core sends the Check stage for one
// execution of in: its fingerprint XOR the fault-free hash of in.
//
// A pending transient fault (flip != 0) corrupts this execution's
// result. The window keeps the architecturally correct instruction, so
// re-execution after a squash computes the correct fingerprint — exactly
// the transient-fault recovery model. Reunion fingerprints cover memory
// access addresses as well as register updates: the translated physical
// address pa is folded in, so a corrupted translation on either side of
// the pair diverges the fingerprints and is detected at the Check stage.
//
// Sending the difference from the fault-free hash is exact because the
// Check stage only ever compares the two sides' values for one sequence
// number, and within one binding both come from the same stream position
// — the same in (see package reunion). XOR-ing both with the same H(in)
// changes no comparison, and a fault-free execution, almost every one,
// hashes nothing.
func checkFingerprint(in *isa.Inst, flip, pa uint64) uint64 {
	var fp uint64
	if flip != 0 {
		corrupted := *in
		corrupted.Result ^= flip
		fp = corrupted.Fingerprint() ^ in.Fingerprint()
	}
	if in.Class.IsMem() {
		fp ^= (pa + 0x9e3779b97f4a7c15) * 0xff51afd7ed558ccd
	}
	return fp
}

// translate runs the TLB for a memory instruction, returning extra
// latency for a hardware fill.
func (c *Core) translate(e *entry) sim.Cycle {
	pa, hit, ok := c.TLB.Lookup(c.Space, e.inst.VA)
	if !ok {
		// Unmapped (should not occur: regions are pre-mapped); treat
		// as an identity mapping so the simulation can proceed.
		pa = e.inst.VA
	}
	e.pa = pa
	if hit {
		return 0
	}
	c.C.TLBMisses++
	return c.cfg.TLBFillLat
}

// --- fetch ---------------------------------------------------------------

func (c *Core) fetch(now sim.Cycle) {
	if c.fetchHold {
		c.C.FetchStallCycles++
		return
	}
	if c.fetchBlockedUntil > now {
		c.C.FetchStallCycles++
		return
	}
	if c.serializers > 0 {
		c.C.SIStallCycles++
		return
	}
	for n := 0; n < c.cfg.FetchWidth; n++ {
		if c.count == len(c.win) {
			if n == 0 {
				c.C.WindowFullCycles++
			}
			return
		}
		in := c.peeked
		if !c.hasPeek {
			in = c.src.Peek()
			c.peeked = in
			c.hasPeek = true
		}
		if c.fetchBarrier != 0 && in.Seq > c.fetchBarrier {
			// Drain barrier reached: convert to a plain hold.
			c.fetchBarrier = 0
			c.fetchHold = true
			return
		}
		switch in.Class {
		case isa.Load:
			if c.lsqLoads >= c.cfg.LoadQueue {
				if n == 0 {
					c.C.WindowFullCycles++
				}
				return
			}
		case isa.Store:
			if c.lsqStores >= c.cfg.StoreQueue {
				if n == 0 {
					c.C.WindowFullCycles++
				}
				return
			}
		}
		// Instruction cache: one access per new line.
		line := in.PC &^ uint64(c.cfg.LineSize-1)
		if line != c.curFetchLine {
			ready := c.fetchLine(in.PC, now)
			c.curFetchLine = line
			if ready > now+c.cfg.L1HitLat {
				c.BlockUntil(ready)
				return
			}
		}
		// Mode-transition hook: a performance-mode core may not
		// execute privileged code; the MMM layer interposes here.
		if in.Class == isa.TrapEnter && c.OnTrapEnter != nil && !c.suppressTrapHook {
			if c.OnTrapEnter(c) {
				c.fetchHold = true
				return
			}
		}
		if in.Class == isa.TrapEnter {
			c.suppressTrapHook = false
		}
		c.src.Consume()
		c.hasPeek = false
		c.insert(in, now)
	}
}

// fetchLine performs the instruction-cache access for pc.
func (c *Core) fetchLine(pc uint64, now sim.Cycle) sim.Cycle {
	pa, hit, ok := c.TLB.Lookup(c.Space, pc)
	extra := sim.Cycle(0)
	if !hit && ok {
		c.C.TLBMisses++
		extra = c.cfg.TLBFillLat
	}
	if !ok {
		pa = pc
	}
	var ready sim.Cycle
	if c.coherent {
		ready, _ = c.hier.Fetch(c.ID, pa, now+extra)
	} else {
		ready, _ = c.hier.IncoherentFetch(c.ID, pa, now+extra)
	}
	return ready
}

// insert places a fetched instruction into the window.
func (c *Core) insert(in isa.Inst, now sim.Cycle) {
	tail := (c.head + c.count) % len(c.win)
	readyAt := sim.Cycle(0) // no producer: issuable immediately
	pseq := uint64(0)
	if in.Dep != 0 && uint64(in.Dep) < in.Seq {
		readyAt = readyUnknown // producer in flight: resolved by readySlow
		pseq = in.Seq - uint64(in.Dep)
	}
	c.win[tail] = entry{inst: in}
	c.readyAts[tail] = readyAt
	c.prodSeqs[tail] = pseq
	c.classes[tail] = in.Class
	c.count++
	c.unissued = append(c.unissued, tail)
	if len(c.unissued) <= scanDepth {
		// The new entry lands inside the issue scan's examination
		// window and may be instantly ready: cancel any scan sleep.
		c.issueWakeAt = 0
	}
	switch in.Class {
	case isa.Load:
		c.lsqLoads++
	case isa.Store:
		c.lsqStores++
	case isa.Serializing, isa.TrapEnter, isa.TrapReturn:
		c.serializers++
		if in.Class != isa.Serializing {
			// Control transfer into/out of the kernel redirects the
			// front end.
			c.BlockUntil(now + sim.Cycle(c.cfg.PipelineStages))
		}
	}
}

// WindowOccupancy returns the number of in-flight instructions (for
// tests and diagnostics).
func (c *Core) WindowOccupancy() int { return c.count }

// Hierarchy exposes the memory hierarchy the core is wired to.
func (c *Core) Hierarchy() *cache.Hierarchy { return c.hier }

// InOS reports the committed user/OS phase.
func (c *Core) InOS() bool { return c.inOS }

// SetInOS restores the phase when a migrated VCPU resumes on this core.
func (c *Core) SetInOS(os bool) { c.inOS = os }
