// Package core assembles the paper's contribution: the Mixed-Mode
// Multicore (MMM). It wires the substrates together — cores, Reunion
// pairs, the cache hierarchy, the PAT/PAB protection path, the VCPU
// state engine and the virtualization scheduler — and implements the
// Enter-DMR / Leave-DMR mode-transition state machines, the per-VCPU
// reliability-mode register semantics, and the five evaluated system
// configurations (No DMR 2X, No DMR, Reunion/DMR-base, MMM-IPC,
// MMM-TP) plus the single-OS mixed-mode system.
package core

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/cpu"
	"repro/internal/fault"
	"repro/internal/mode"
	"repro/internal/obs"
	"repro/internal/pab"
	"repro/internal/paging"
	"repro/internal/reunion"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/vcpu"
)

// Kind selects one of the evaluated system configurations.
type Kind int

const (
	// KindNoDMR2X runs independent VCPUs on all cores with no
	// redundancy — the normalization baseline of Figure 5.
	KindNoDMR2X Kind = iota
	// KindNoDMR runs half as many VCPUs on half the cores; the other
	// cores idle.
	KindNoDMR
	// KindReunion pairs all cores and runs every VCPU under DMR — the
	// traditional DMR system.
	KindReunion
	// KindDMRBase is the consolidated-server baseline: both guests run
	// under DMR because one of them needs reliability.
	KindDMRBase
	// KindMMMIPC is the first mixed-mode system: the performance
	// guest's redundant cores idle, improving per-thread IPC.
	KindMMMIPC
	// KindMMMTP is the second mixed-mode system: otherwise-idle
	// redundant cores run additional independent VCPUs of the
	// performance guest, improving throughput.
	KindMMMTP
	// KindSingleOS is the single-OS mixed-mode system of Figure 1:
	// user code of performance applications runs on one core, and
	// every trap into the OS triggers an Enter-DMR transition.
	KindSingleOS
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindNoDMR2X:
		return "NoDMR2X"
	case KindNoDMR:
		return "NoDMR"
	case KindReunion:
		return "Reunion"
	case KindDMRBase:
		return "DMRBase"
	case KindMMMIPC:
		return "MMM-IPC"
	case KindMMMTP:
		return "MMM-TP"
	case KindSingleOS:
		return "SingleOS"
	default:
		return "?"
	}
}

// pairPlan describes what one core pair runs during one scheduling
// group: a VCPU executing redundantly (dmr), or up to two independent
// VCPUs (vocal on the even core, mute on the odd core).
type pairPlan struct {
	vocal *vcpu.VCPU
	mute  *vcpu.VCPU
	dmr   bool
}

// plan assigns every pair for one gang-scheduled group.
type plan []pairPlan

// Chip is the full simulated Mixed-Mode Multicore.
type Chip struct {
	Cfg   *sim.Config
	Kind  Kind
	Hier  *cache.Hierarchy
	Cores []*cpu.Core
	Pairs []*reunion.Pair
	Eng   *vcpu.Engine
	PM    *paging.PhysMap
	PAT   *pab.Table
	PABs  []*pab.PAB

	Guests []*sched.Guest
	groups []plan

	Now sim.Cycle

	curPlan []pairPlan
	trans   []*transition

	// Mode-policy seam (internal/mode, driver in policy.go): the
	// policy decides at scheduling boundaries what every pair runs;
	// polNextAt caches its timer horizon for the event-horizon run
	// loop; curAsg tracks each pair's target assignment; the polLast*
	// fields window the per-pair commit deltas between decisions.
	policy         mode.Policy
	polNextAt      sim.Cycle
	polWantsFaults bool
	curAsg         []mode.Assignment
	polStatus      []mode.PairStatus
	polLastCommits []uint64
	polLastAt      sim.Cycle
	groupSwitches  uint64

	// rec is the optional flight recorder (internal/obs): transitions,
	// policy decisions, faults, injections and bulk-step segments are
	// emitted when it is non-nil. It is pure observation — it never
	// consumes RNG or changes event order — so a recorded run's
	// metrics are byte-identical to an unrecorded one, and the
	// disabled path costs one nil check per (rare) emission site.
	rec *obs.Recorder
	// polRetry marks pairs whose policy decision was dropped while a
	// transition was in flight, so the recorder can tell a "retried"
	// decision from a fresh one. Only maintained while rec != nil.
	polRetry []bool

	// Hot-path scheduling state.
	transCount int  // live entries in trans
	drainCount int  // live entries still in phase 0 (draining)
	transDirty bool // a transition started during the current bulk step

	usePAB bool

	Injector *fault.Injector
	// faultBase is the injector's total at the last ResetMeasurement, so
	// Collect reports only measurement-window injections.
	faultBase uint64

	// onFaultEvent observes protection-mechanism activity for
	// reliability evaluation (see observe.go); machineChecks counts
	// unrecoverable-divergence escalations.
	onFaultEvent  func(FaultEvent)
	machineChecks uint64

	// Attribution of committed work to guests across reassignments.
	attrGuest []int // guest occupying each core; -1 idle / duplicate
	attrUser  []uint64
	attrOS    []uint64
	guestUser map[int]uint64
	guestOS   map[int]uint64

	// Transition-cost accounting (Table 1).
	enterN, leaveN        uint64
	enterCycles, leaveCyc uint64
	ctxN, ctxCycles       uint64
}

// newChip builds the hardware: cores, pairs, hierarchy, protection.
func newChip(cfg *sim.Config, kind Kind, rec *cache.Recycler) (*Chip, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := &Chip{
		Cfg:       cfg,
		Kind:      kind,
		Hier:      cache.NewRecycled(cfg, rec),
		PM:        paging.NewPhysMap(cfg.PhysMemBytes, cfg.PageBytes),
		guestUser: make(map[int]uint64),
		guestOS:   make(map[int]uint64),
	}
	c.PAT = pab.NewTable(c.PM)
	for i := 0; i < cfg.Cores; i++ {
		core := cpu.New(i, cfg, c.Hier)
		c.Cores = append(c.Cores, core)
		p := pab.New(cfg, c.PAT, c.Hier, i)
		p.Serial = cfg.PABSerial
		c.PABs = append(c.PABs, p)
		// PAB<->TLB coherence: demaps invalidate the covering entry.
		core.TLB.OnDemap(p.InvalidateForPage)
	}
	for i := 0; i < cfg.Cores/2; i++ {
		c.Pairs = append(c.Pairs, reunion.NewPair(cfg, c.Cores[2*i], c.Cores[2*i+1]))
	}
	c.Eng = vcpu.NewEngine(cfg)
	c.curPlan = make([]pairPlan, cfg.Cores/2)
	c.trans = make([]*transition, cfg.Cores/2)
	c.curAsg = make([]mode.Assignment, cfg.Cores/2)
	c.polStatus = make([]mode.PairStatus, cfg.Cores/2)
	c.polLastCommits = make([]uint64, cfg.Cores)
	c.polRetry = make([]bool, cfg.Cores/2)
	c.polNextAt = sim.Never
	c.attrGuest = make([]int, cfg.Cores)
	c.attrUser = make([]uint64, cfg.Cores)
	c.attrOS = make([]uint64, cfg.Cores)
	for i := range c.attrGuest {
		c.attrGuest[i] = -1
	}
	c.installFaultHooks()
	return c, nil
}

// Tick advances the whole chip by one cycle: scheduler, in-flight mode
// transitions, fault injector, then every core in ID order, idle ones
// included. It is the per-cycle reference Run must match.
func (c *Chip) Tick() {
	now := c.Now
	if now >= c.polNextAt {
		c.policyDecide(mode.Event{Kind: mode.EvTimer, Pair: -1, Cycle: now})
	}
	if c.transCount > 0 {
		for p := range c.trans {
			if c.trans[p] != nil {
				c.stepTransition(p, now)
			}
		}
	}
	if c.Injector != nil {
		if c.rec == nil {
			c.Injector.Tick(now, c)
		} else {
			c.tickInjectorRecorded(now)
		}
	}
	for _, core := range c.Cores {
		core.Tick(now)
	}
	c.Now++
}

// tickInjectorRecorded runs the injector and emits every attempt it
// logged this cycle to the flight recorder. Kept out of Tick's body so
// the recorder-disabled path stays lean.
func (c *Chip) tickInjectorRecorded(now sim.Cycle) {
	n0 := len(c.Injector.Log)
	c.Injector.Tick(now, c)
	for _, in := range c.Injector.Log[n0:] {
		cause := in.Kind.String()
		if !in.Hit {
			cause += "/miss"
		}
		c.rec.Emit(obs.Event{
			Kind: obs.KindInjection, Cycle: in.Cycle,
			Pair: in.Core / 2, Core: in.Core,
			Cause: cause, Arg: int64(in.Seq),
		})
	}
}

// Run advances the chip n cycles. It is the hot path of every campaign:
// instead of consulting the gang scheduler, the transition engine and
// the fault injector on each of the n cycles, it asks each for its
// event horizon (NextEventAt) and bulk-steps the cores up to the
// earliest one, falling back to full per-cycle Ticks only at event
// cycles and while a pair is draining toward a mode switch. Inside a
// bulk step, a core whose pipeline sleeps — stalled, or idle with no
// source — is not ticked until its wake cycle (cpu.Core.SkipUntil), and
// when every core sleeps the clock jumps to the earliest wake, or to the
// horizon. Slept cycles are charged lazily, at the core's next Tick or
// at Collect/ResetMeasurement (SettleTo). The resulting simulation is
// cycle-for-cycle identical to n Ticks.
func (c *Chip) Run(n sim.Cycle) {
	end := c.Now + n
	for c.Now < end {
		horizon := c.nextEventAt(end)
		if horizon <= c.Now {
			c.Tick()
			continue
		}
		start := c.Now
		c.transDirty = false
		for c.Now < horizon {
			// next ends at now+1 if any core ticked, else at the earliest
			// wake: with every core asleep, nothing changes before it.
			now := c.Now
			next := horizon
			for _, core := range c.Cores {
				if at := core.SkipUntil(); now < at {
					if at < next {
						next = at
					}
					continue
				}
				core.Tick(now)
				next = now + 1
			}
			c.Now = next
			if c.transDirty {
				// A fetch/commit hook queued a mode transition this
				// cycle; it must start draining on the next one.
				break
			}
		}
		if c.rec != nil && c.Now > start {
			busy := 0
			for _, core := range c.Cores {
				if !core.Idle() {
					busy++
				}
			}
			c.rec.Emit(obs.Event{
				Kind: obs.KindBulkStep, Cycle: start, Dur: c.Now - start,
				Pair: -1, Core: -1, Arg: int64(busy),
			})
		}
	}
}

// nextEventAt returns the earliest cycle at which chip-level machinery
// must run again, capped at end. While any pair is still draining
// (transition phase 0) the horizon collapses to now, because drain
// completion is detected by polling the pipelines.
func (c *Chip) nextEventAt(end sim.Cycle) sim.Cycle {
	h := end
	if c.polNextAt < h {
		h = c.polNextAt
	}
	if c.Injector != nil {
		if t := c.Injector.NextEventAt(); t < h {
			h = t
		}
	}
	if c.transCount > 0 {
		if c.drainCount > 0 {
			// Drain completion is detected by polling the pipelines, so
			// any pair still in phase 0 collapses the horizon to now —
			// decided by one counter, without walking trans.
			return c.Now
		}
		for _, tr := range c.trans {
			if tr != nil && tr.doneAt < h {
				h = tr.doneAt
			}
		}
	}
	return h
}

// --- attribution ----------------------------------------------------------

// flushAttribution credits committed work on core to the guest that was
// running it and rebases the counters.
func (c *Chip) flushAttribution(coreID int) {
	g := c.attrGuest[coreID]
	cc := &c.Cores[coreID].C
	if g >= 0 {
		c.guestUser[g] += cc.UserCommits - c.attrUser[coreID]
		c.guestOS[g] += cc.OSCommits - c.attrOS[coreID]
	}
	c.attrUser[coreID] = cc.UserCommits
	c.attrOS[coreID] = cc.OSCommits
}

// setAttribution records which guest's work now commits on the core
// (-1 for idle or for mute cores whose commits duplicate the vocal's).
func (c *Chip) setAttribution(coreID, guest int) {
	c.flushAttribution(coreID)
	c.attrGuest[coreID] = guest
}

// ResetMeasurement zeroes every counter after warmup so reported
// metrics cover only the measurement window.
func (c *Chip) ResetMeasurement() {
	for i, core := range c.Cores {
		c.flushAttribution(i)
		// Settle slept warmup cycles into the counters being discarded
		// (the pair's included); cycles slept after the reset accrue
		// fresh.
		core.SettleTo(c.Now)
		core.C = stats.CoreCounters{}
		c.attrUser[i] = 0
		c.attrOS[i] = 0
	}
	for i := range c.Hier.Ctr {
		c.Hier.Ctr[i] = stats.CacheCounters{}
	}
	for _, p := range c.Pairs {
		p.Checks = 0
		p.Mismatches = 0
	}
	for _, p := range c.PABs {
		p.C = stats.CoreCounters{}
		p.WouldCorrupt = 0
	}
	clear(c.guestUser)
	clear(c.guestOS)
	c.enterN, c.enterCycles = 0, 0
	c.leaveN, c.leaveCyc = 0, 0
	c.ctxN, c.ctxCycles = 0, 0
	c.machineChecks = 0
	c.Eng.VerifyFailures = 0
	// Rebase the policy's utilization windows onto the zeroed commit
	// counters so the next decision's deltas stay well-formed.
	for i := range c.polLastCommits {
		c.polLastCommits[i] = 0
	}
	c.polLastAt = c.Now
	// Rebase the injector tally: warmup-window faults stay injected (the
	// corrupted state is real), but the measured FaultsInjected metric
	// must cover only the measurement window.
	if c.Injector != nil {
		c.faultBase = c.Injector.Total()
	}
}

// Release returns the chip's recycled resources (the hierarchy's line
// arrays) to the recycler it was built with; a no-op otherwise. The
// chip must not be used afterwards.
func (c *Chip) Release() {
	c.Hier.Release()
}

// --- fault.Target ----------------------------------------------------------

// NumCores implements fault.Target.
func (c *Chip) NumCores() int { return c.Cfg.Cores }

// CorruptResult implements fault.Target.
func (c *Chip) CorruptResult(core int, mask uint64) {
	c.Cores[core].InjectResultFault(mask)
}

// CorruptTLB implements fault.Target: flip a physical-page bit of a
// live translation in the core's TLB (a private-region page of the
// running VCPU, the hottest class of store targets).
func (c *Chip) CorruptTLB(core int, bit uint) bool {
	v := c.runningVCPU(core)
	if v == nil {
		return false
	}
	regions := v.Space.Regions()
	for _, r := range regions {
		if r.Name != "priv" {
			continue
		}
		// Try a few pages of the private region.
		for p := uint64(0); p < r.Pages && p < 8; p++ {
			if c.Cores[core].TLB.CorruptEntry(v.Space.ASID, r.VBase+p, bit) {
				return true
			}
		}
	}
	return false
}

// CorruptPrivReg implements fault.Target: flip a privileged-register
// bit of the VCPU running on core. Only effective while the VCPU runs
// unprotected (performance mode); in DMR mode the redundant copy means
// the corruption is detected at the next fingerprint/verify point, so
// we restrict injection to performance-mode cores, the case the paper
// defends against.
func (c *Chip) CorruptPrivReg(core int, reg int, bit uint) (int, bool) {
	pi := core / 2
	if c.curPlan[pi].dmr {
		return -1, false
	}
	v := c.runningVCPU(core)
	if v == nil {
		return -1, false
	}
	v.Reg.Priv[reg%len(v.Reg.Priv)] ^= 1 << (bit % 64)
	return v.ID, true
}

// runningVCPU returns the VCPU whose stream the core is executing.
func (c *Chip) runningVCPU(core int) *vcpu.VCPU {
	pl := c.curPlan[core/2]
	if core%2 == 0 {
		return pl.vocal
	}
	if pl.dmr {
		return pl.vocal
	}
	return pl.mute
}

// RemapPage exercises the paging/PAT/PAB coherence path: the system
// software moves one virtual page of the VCPU onto a fresh physical
// page, demaps the TLB entry on every core, and updates the PAT (which
// invalidates the stale PAB lines).
func (c *Chip) RemapPage(v *vcpu.VCPU, va uint64) error {
	oldP, newP, ok := v.Space.Remap(va)
	if !ok {
		return fmt.Errorf("core: remap of unmapped address %#x", va)
	}
	vpage := va >> c.PM.PageShift()
	for _, core := range c.Cores {
		core.TLB.Demap(v.Space.ASID, vpage)
	}
	line := c.PAT.Update(oldP, true) // old frame reverts to reliable-only
	for _, p := range c.PABs {
		p.InvalidateLine(line)
	}
	line = c.PAT.Update(newP, c.PM.ReliableOnly(newP))
	for _, p := range c.PABs {
		p.InvalidateLine(line)
	}
	return nil
}
