// Package trace generates the deterministic synthetic instruction
// streams that drive the simulator. A generator models one software
// thread: alternating user and OS phases (system calls, interrupts),
// an instruction mix, control flow over a code footprint with an
// L1-resident hot loop/function working set, and data accesses over
// private, shared and kernel regions with multi-tier reuse locality.
//
// Threads of one guest share the hot/warm sets of the shared-data and
// kernel regions (a database's buffer pool and lock tables, a web
// server's accept queues, the OS run queues) — that sharing is what
// produces the coherence traffic, upgrades and cache-to-cache
// transfers the paper's evaluation hinges on.
//
// Determinism is a hard requirement, not a convenience: the vocal and
// mute cores of a Reunion pair tee a single generator (trace.Shared)
// and must observe bit-identical instruction streams. The Check stage
// relies on it: each side's fingerprint is taken relative to the
// fault-free hash of the shared instruction (see package reunion).
package trace

import (
	"repro/internal/isa"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Virtual-address region bases. Regions are far apart so they can never
// collide; the paging layer maps each to its own physical allocation.
const (
	VACodeBase   = 0x0000_0100_0000_0000
	VAPrivBase   = 0x0000_0200_0000_0000
	VASharedBase = 0x0000_0300_0000_0000
	VAOSCodeBase = 0x0000_0400_0000_0000
	VAOSDataBase = 0x0000_0500_0000_0000
)

const (
	pageBytes = 8 * 1024
	lineBytes = 64
)

// hotSet is a fixed-capacity ring of recently used line addresses.
// Re-referencing recent lines is what gives the stream its cache
// locality.
//
// A ring starts full, so the reuse distribution is in steady state from
// the first instruction: entry i of its pre-fill is a uniform line of
// its region, base + (output i of the generator's RNG at construction %
// span) * lineBytes — the draws Uint64n would have made. The pre-fill is
// never stored. Pushes overwrite entries in index order from 0, so
// lines holds exactly the pushed prefix and at computes any index past
// it from the recorded RNG state; a trial that pushes a few hundred
// lines never pays for the thousands it does not.
type hotSet struct {
	lines []uint64 // entries 0..len(lines)-1, as pushed
	size  int      // capacity
	next  int      // entry the next push overwrites once lines is full

	state uint64 // RNG state the pre-fill draws from
	base  uint64 // region base address
	span  uint64 // region size in lines
}

// newHotSet records a ring of capacity lines over the region at base
// and moves r past the draws an eager fill would make, leaving r in the
// state that fill leaves.
func newHotSet(r *sim.Rand, capacity int, base, pages uint64) *hotSet {
	h := &hotSet{size: capacity, state: r.Snapshot(), base: base, span: pages * pageBytes / lineBytes}
	r.Skip(uint64(capacity))
	return h
}

func (h *hotSet) push(la uint64) {
	if len(h.lines) < h.size {
		h.lines = append(h.lines, la)
		return
	}
	h.lines[h.next] = la
	// Increment and reset rather than %: the same index sequence
	// without a 64-bit division on every push.
	if h.next++; h.next == h.size {
		h.next = 0
	}
}

// at returns entry i: pushed, or still the pre-fill line.
func (h *hotSet) at(i int) uint64 {
	if i < len(h.lines) {
		return h.lines[i]
	}
	return h.base + sim.OutputAt(h.state, uint64(i))%h.span*lineBytes
}

func (h *hotSet) pick(r *sim.Rand) (uint64, bool) {
	if h.size == 0 {
		return 0, false
	}
	return h.at(r.Intn(h.size)), true
}

// GuestState holds the truly write-shared lines of one guest: the user
// sync lines (locks, shared counters, queue heads in the shared data
// region) and the kernel sync lines (run queues, VFS locks). Every VCPU
// generator of one guest references the same GuestState, so the
// threads genuinely contend on the same lines — these are the lines
// whose stores invalidate every other cache and whose reloads arrive
// as 3-hop cache-to-cache transfers.
type GuestState struct {
	syncUser []uint64
	syncOS   []uint64
}

// NewGuestState builds the contended-line sets for one guest. Sync
// lines are spread one per page at the start of the shared and kernel
// regions, so they map to distinct cache sets and directory banks.
func NewGuestState(p *workload.Params) *GuestState {
	gs := &GuestState{}
	for i := 0; i < p.SyncLines; i++ {
		gs.syncUser = append(gs.syncUser, VASharedBase+uint64(i)*(pageBytes+lineBytes))
		gs.syncOS = append(gs.syncOS, VAOSDataBase+uint64(i)*(pageBytes+lineBytes))
	}
	return gs
}

// Gen produces the dynamic instruction stream of one thread.
type Gen struct {
	rng   *sim.Rand
	p     *workload.Params
	guest *GuestState

	seq       uint64
	inOS      bool
	remaining int

	pc      uint64
	lineRun int // instructions left before control transfers lines

	hotPriv    *hotSet
	warmPriv   *hotSet
	hotShared  *hotSet
	warmShared *hotSet
	hotOS      *hotSet
	warmOS     *hotSet

	hotCode    *hotSet
	warmCode   *hotSet
	hotOSCode  *hotSet
	warmOSCode *hotSet

	// Totals for calibration and tests.
	UserInsts uint64
	OSInsts   uint64
	Traps     uint64
}

// New creates a generator for the given workload with private working
// sets (a single-threaded view; threads that should share pass a
// common GuestState to NewInGuest).
func New(p *workload.Params, seed uint64) *Gen {
	return NewInGuest(p, seed, NewGuestState(p))
}

// NewInGuest creates a generator whose shared-region and kernel working
// sets are shared with the other generators of the same guest.
func NewInGuest(p *workload.Params, seed uint64, gs *GuestState) *Gen {
	g := &Gen{
		rng:   sim.NewRand(seed),
		p:     p,
		guest: gs,
		pc:    VACodeBase,
	}
	g.remaining = g.rng.Around(p.UserInstrsPerTrap)
	// The working sets start full (see hotSet); each ring takes its
	// pre-fill draws from the RNG in this order.
	r := g.rng
	g.warmPriv = newHotSet(r, p.WarmLines, VAPrivBase, p.PrivPages)
	g.hotPriv = newHotSet(r, p.HotLines, VAPrivBase, p.PrivPages)
	g.warmShared = newHotSet(r, p.WarmLines/2, VASharedBase, p.SharedPages)
	g.hotShared = newHotSet(r, p.HotLines/2, VASharedBase, p.SharedPages)
	g.warmOS = newHotSet(r, p.WarmLines/2, VAOSDataBase, p.OSPages)
	g.hotOS = newHotSet(r, p.HotLines/2, VAOSDataBase, p.OSPages)
	g.warmCode = newHotSet(r, p.ICHotLines*4, VACodeBase, p.CodePages)
	g.hotCode = newHotSet(r, p.ICHotLines, VACodeBase, p.CodePages)
	g.warmOSCode = newHotSet(r, p.ICHotLines*4, VAOSCodeBase, p.OSCodePages)
	g.hotOSCode = newHotSet(r, p.ICHotLines, VAOSCodeBase, p.OSCodePages)
	return g
}

// Next returns the next dynamic instruction.
func (g *Gen) Next() isa.Inst {
	g.seq++
	if g.remaining <= 0 {
		return g.phaseSwitch()
	}
	g.remaining--
	if g.inOS {
		g.OSInsts++
		return g.gen(true)
	}
	g.UserInsts++
	return g.gen(false)
}

// phaseSwitch emits the trap-enter or trap-return marking a transition
// between user and OS execution.
func (g *Gen) phaseSwitch() isa.Inst {
	in := isa.Inst{Seq: g.seq, PC: g.pc, Result: g.rng.Next()}
	if !g.inOS {
		g.Traps++
		in.Class = isa.TrapEnter
		in.Priv = true
		g.inOS = true
		g.remaining = g.rng.Around(g.p.OSInstrsPerTrap)
	} else {
		in.Class = isa.TrapReturn
		in.Priv = true
		g.inOS = false
		g.remaining = g.rng.Around(g.p.UserInstrsPerTrap)
	}
	g.lineRun = 0 // trap handlers start on a different code line
	return in
}

// gen emits one ordinary instruction in the current phase.
func (g *Gen) gen(os bool) isa.Inst {
	p := g.p
	g.advancePC(os)
	in := isa.Inst{Seq: g.seq, PC: g.pc, Priv: os}
	u := g.rng.Float64()
	var loadF, storeF, branchF, siF float64
	if os {
		loadF, storeF, branchF, siF = p.OSLoadFrac, p.OSStoreFrac, p.OSBranchFrac, p.OSSIFrac
	} else {
		loadF, storeF, branchF, siF = p.LoadFrac, p.StoreFrac, p.BranchFrac, p.UserSIFrac
	}
	switch {
	case u < loadF:
		in.Class = isa.Load
		in.VA = g.dataAddr(os, false)
	case u < loadF+storeF:
		in.Class = isa.Store
		in.VA = g.dataAddr(os, true)
	case u < loadF+storeF+branchF:
		in.Class = isa.Branch
		in.Taken = g.rng.Bool(0.6)
		in.Misp = g.rng.Bool(p.MispredictRate)
	case u < loadF+storeF+branchF+siF:
		in.Class = isa.Serializing
	case u < loadF+storeF+branchF+siF+p.MulFrac:
		in.Class = isa.Mul
	case u < loadF+storeF+branchF+siF+p.MulFrac+p.DivFrac:
		in.Class = isa.Div
	default:
		in.Class = isa.ALU
	}
	dep := g.rng.Geometric(p.DepMean)
	if dep > 48 {
		dep = 48 // beyond the scheduler's scan depth every producer is done
	}
	in.Dep = uint8(dep)
	in.Result = g.rng.Next()
	return in
}

// advancePC models instruction-fetch behaviour: sequential runs of
// ICLineRunMean instructions on one line, then a control transfer to
// a hot line (the L1-resident loop working set, probability ICHotFrac),
// a warm line (the L2/L3-resident function working set), or — rarely —
// a cold line anywhere in the code footprint.
func (g *Gen) advancePC(os bool) {
	if g.lineRun > 0 {
		g.lineRun--
		g.pc += 4
		return
	}
	g.lineRun = g.rng.Geometric(g.p.ICLineRunMean)
	base, pages := uint64(VACodeBase), g.p.CodePages
	hot, warm := g.hotCode, g.warmCode
	if os {
		base, pages = uint64(VAOSCodeBase), g.p.OSCodePages
		hot, warm = g.hotOSCode, g.warmOSCode
	}
	u := g.rng.Float64()
	if la, ok := hot.pick(g.rng); ok && u < g.p.ICHotFrac {
		g.pc = la
		return
	}
	warmCut := g.p.ICHotFrac + (1-g.p.ICHotFrac)*0.9
	if la, ok := warm.pick(g.rng); ok && u < warmCut {
		hot.push(la)
		g.pc = la
		return
	}
	la := base + g.rng.Uint64n(pages*pageBytes/lineBytes)*lineBytes
	warm.push(la)
	g.pc = la
}

// dataAddr produces the virtual address of a load or store.
//
// A small fraction of accesses (SyncFrac in user code, OSSyncFrac in
// the kernel) hit the guest's write-shared sync lines. Everything else
// uses the three-tier reuse model over thread-local working sets: hot
// (L1-resident), warm (L2/L3-resident), cold (anywhere in the region
// footprint). Cold lines promote into the warm set; warm picks promote
// into the hot set, so the working set drifts slowly the way real heap
// and buffer-pool accesses do.
func (g *Gen) dataAddr(os, isStore bool) uint64 {
	p := g.p
	off := g.rng.Uint64n(lineBytes/8) * 8
	var base uint64
	var pages uint64
	var hot, warm *hotSet
	switch {
	case os && g.rng.Bool(p.OSSyncFrac):
		// Contended kernel structures (run queues, VFS, locks),
		// shared by every thread of the guest.
		return g.guest.syncOS[g.rng.Intn(len(g.guest.syncOS))] + off
	case os:
		base, pages, hot, warm = VAOSDataBase, p.OSPages, g.hotOS, g.warmOS
	case g.rng.Bool(p.SyncFrac):
		// Application-level locks and shared counters.
		return g.guest.syncUser[g.rng.Intn(len(g.guest.syncUser))] + off
	case g.rng.Bool(p.SharedFrac):
		base, pages, hot, warm = VASharedBase, p.SharedPages, g.hotShared, g.warmShared
	default:
		base, pages, hot, warm = VAPrivBase, p.PrivPages, g.hotPriv, g.warmPriv
	}
	_ = isStore
	u := g.rng.Float64()
	if la, ok := hot.pick(g.rng); ok && u < p.HotFrac {
		return la + off
	}
	if la, ok := warm.pick(g.rng); ok && u < p.HotFrac+p.WarmFrac {
		hot.push(la)
		return la + off
	}
	va := base + g.rng.Uint64n(pages*pageBytes/lineBytes)*lineBytes
	warm.push(va)
	return va + off
}

// Seq returns the number of instructions generated so far.
func (g *Gen) Seq() uint64 { return g.seq }

// InOS reports whether the stream is currently in an OS phase.
func (g *Gen) InOS() bool { return g.inOS }
