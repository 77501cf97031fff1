package cache

import (
	"repro/internal/interconnect"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Source says where a memory access was satisfied, for diagnostics and
// for reproducing the paper's C2C-transfer analysis.
type Source uint8

const (
	// SrcL1 is a private L1 hit.
	SrcL1 Source = iota
	// SrcL2 is a private L2 hit.
	SrcL2
	// SrcC2C is a 3-hop cache-to-cache transfer from another L2.
	SrcC2C
	// SrcL3 is a shared L3 hit (2-hop).
	SrcL3
	// SrcMem is an off-chip memory access.
	SrcMem
)

// String names the source.
func (s Source) String() string {
	switch s {
	case SrcL1:
		return "L1"
	case SrcL2:
		return "L2"
	case SrcC2C:
		return "C2C"
	case SrcL3:
		return "L3"
	case SrcMem:
		return "Mem"
	default:
		return "?"
	}
}

// Hierarchy is the chip's full memory system: per-core split L1s and
// private L2s, the shared exclusive L3, the MOSI directory, the
// interconnect, and the memory controller.
//
// Coherent requests (everything except a Reunion mute core's normal
// execution) update directory state. Incoherent requests make a
// best-effort attempt to find the data — preferentially a C2C transfer
// from the owning L2, which is usually the vocal core that fetched the
// line first (the paper's explanation for Reunion's 20–50% C2C
// increase under an exclusive L3) — without changing the state of the
// line in the directory or any other cache.
type Hierarchy struct {
	cfg *sim.Config
	rec *Recycler
	net *interconnect.Network
	mem *Memory

	L1I []*Cache
	L1D []*Cache
	L2  []*Cache
	L3  *Cache
	Dir *Directory

	l3AccessLat sim.Cycle
	memEP       int

	// lineShift/bankMask turn bankEP's divide-and-modulo into
	// shift-and-mask; bankMask is 0 when L3Banks is not a power of two
	// and the slow path applies.
	lineShift uint
	bankMask  uint64

	// Ctr is indexed by core; mute incoherent traffic is charged to
	// the mute's own core id.
	Ctr []stats.CacheCounters
}

// New builds the hierarchy for the configured chip.
func New(cfg *sim.Config) *Hierarchy {
	return NewRecycled(cfg, nil)
}

// NewRecycled builds the hierarchy drawing its line arrays from the
// given recycler (nil allocates fresh); Release returns them.
func NewRecycled(cfg *sim.Config, rec *Recycler) *Hierarchy {
	h := &Hierarchy{
		cfg:   cfg,
		rec:   rec,
		net:   interconnect.NewNetwork(cfg.Cores+cfg.L3Banks+1, cfg.NetHopLat, cfg.L3PortBusy),
		mem:   NewMemory(cfg),
		L3:    newCache(rec, "L3", cfg.L3Size, cfg.L3Ways, cfg.LineSize),
		Dir:   NewDirectory(),
		Ctr:   make([]stats.CacheCounters, cfg.Cores),
		memEP: cfg.Cores + cfg.L3Banks,
	}
	for 1<<h.lineShift < cfg.LineSize {
		h.lineShift++
	}
	if b := cfg.L3Banks; b > 0 && b&(b-1) == 0 && 1<<h.lineShift == cfg.LineSize {
		h.bankMask = uint64(b - 1)
	}
	for i := 0; i < cfg.Cores; i++ {
		h.L1I = append(h.L1I, newCache(rec, "L1I", cfg.L1Size, cfg.L1Ways, cfg.LineSize))
		h.L1D = append(h.L1D, newCache(rec, "L1D", cfg.L1Size, cfg.L1Ways, cfg.LineSize))
		h.L2 = append(h.L2, newCache(rec, "L2", cfg.L2Size, cfg.L2Ways, cfg.LineSize))
	}
	// Decompose the configured end-to-end L3 load-to-use latency into
	// request hop + shadow-tag/directory lookup + array access +
	// response hop.
	lat := int64(cfg.L3HitLat) - 2*int64(cfg.NetHopLat) - int64(cfg.DirLat)
	if lat < 1 {
		lat = 1
	}
	h.l3AccessLat = sim.Cycle(lat)
	return h
}

// Mem exposes the memory controller (for tests and ablations).
func (h *Hierarchy) Mem() *Memory { return h.mem }

// Release hands every line array back to the recycler the hierarchy
// was built with (a no-op for fresh-allocating hierarchies). The
// hierarchy — and the chip above it — must not be used afterwards.
func (h *Hierarchy) Release() {
	if h.rec == nil {
		return
	}
	h.L3.release(h.rec)
	for i := range h.L2 {
		h.L1I[i].release(h.rec)
		h.L1D[i].release(h.rec)
		h.L2[i].release(h.rec)
	}
}

func (h *Hierarchy) lineAddr(pa uint64) uint64 {
	return pa &^ (uint64(h.cfg.LineSize) - 1)
}

func (h *Hierarchy) bankEP(la uint64) int {
	if h.bankMask != 0 {
		return h.cfg.Cores + int((la>>h.lineShift)&h.bankMask)
	}
	bank := int((la / uint64(h.cfg.LineSize)) % uint64(h.cfg.L3Banks))
	return h.cfg.Cores + bank
}

// Totals sums the per-core cache counters.
func (h *Hierarchy) Totals() stats.CacheCounters {
	var t stats.CacheCounters
	for i := range h.Ctr {
		t.Add(&h.Ctr[i])
	}
	return t
}

// --- coherent request path ---------------------------------------------

// Load performs a coherent load by core at cycle now and returns the
// absolute cycle at which the data is usable plus its source.
func (h *Hierarchy) Load(core int, pa uint64, now sim.Cycle) (sim.Cycle, Source) {
	ctr := &h.Ctr[core]
	la := h.lineAddr(pa)
	if l := h.L1D[core].Lookup(pa); l != nil && l.Coherent {
		ctr.L1Hits++
		return now + h.cfg.L1HitLat, SrcL1
	}
	ctr.L1Misses++
	if l := h.L2[core].Lookup(pa); l != nil && l.Coherent {
		ctr.L2Hits++
		h.fillL1(core, h.L1D, la, true)
		return now + h.cfg.L2HitLat, SrcL2
	}
	ctr.L2Misses++
	ready, src := h.coherentFill(core, la, now, Shared)
	h.fillL1(core, h.L1D, la, true)
	return ready, src
}

// Fetch performs a coherent instruction fetch through the L1I.
func (h *Hierarchy) Fetch(core int, pa uint64, now sim.Cycle) (sim.Cycle, Source) {
	ctr := &h.Ctr[core]
	la := h.lineAddr(pa)
	if l := h.L1I[core].Lookup(pa); l != nil && l.Coherent {
		ctr.L1Hits++
		return now + h.cfg.L1HitLat, SrcL1
	}
	ctr.L1Misses++
	if l := h.L2[core].Lookup(pa); l != nil && l.Coherent {
		ctr.L2Hits++
		h.fillL1(core, h.L1I, la, true)
		return now + h.cfg.L2HitLat, SrcL2
	}
	ctr.L2Misses++
	ready, src := h.coherentFill(core, la, now, Shared)
	h.fillL1(core, h.L1I, la, true)
	return ready, src
}

// Store performs a coherent store by core (a write-through from the L1)
// at cycle now. Under MOSI the L2 must hold the line in Modified state
// before the write completes.
func (h *Hierarchy) Store(core int, pa uint64, now sim.Cycle) (sim.Cycle, Source) {
	ctr := &h.Ctr[core]
	la := h.lineAddr(pa)
	if l := h.L2[core].Probe(la); l != nil && l.Coherent {
		switch l.State {
		case Modified:
			h.L2[core].Lookup(pa) // refresh LRU, count hit
			ctr.L2Hits++
			return now + h.cfg.L2HitLat, SrcL2
		case Owned, Shared:
			// Upgrade: invalidate all other copies via the directory.
			h.L2[core].Lookup(pa)
			ctr.L2Hits++
			inv := h.Dir.TakeExclusive(la, core)
			h.invalidateMask(la, inv, core)
			l.State = Modified
			// One round trip to the home directory bank; the
			// acknowledgement returns on the response channel.
			ready := h.net.Send(core, h.bankEP(la), now) + h.cfg.DirLat + h.cfg.NetHopLat
			return ready, SrcL2
		}
	}
	ctr.L2Misses++
	ready, src := h.coherentFill(core, la, now, Modified)
	return ready, src
}

// coherentFill brings la into core's L2 in the requested final state
// (Shared for a read, Modified for a write), consulting the directory
// and sourcing data from the owning L2 (C2C), the L3, or memory.
func (h *Hierarchy) coherentFill(core int, la uint64, now sim.Cycle, want State) (sim.Cycle, Source) {
	ctr := &h.Ctr[core]
	bank := h.bankEP(la)
	// Request travels to the home bank where shadow tags are consulted.
	atDir := h.net.Send(core, bank, now) + h.cfg.DirLat

	var ready sim.Cycle
	var src Source
	owner := h.Dir.Owner(la)
	switch {
	case owner != NoOwner && owner != core:
		// 3-hop cache-to-cache transfer from the owning L2.
		ctr.C2CTransfers++
		atOwner := h.net.Send(bank, owner, atDir)
		ready = atOwner + h.cfg.L2HitLat + h.cfg.NetHopLat
		src = SrcC2C
		ol := h.L2[owner].Probe(la)
		if want == Modified {
			// Owner is invalidated; requester takes the only copy.
			if ol != nil {
				h.invalidateL2Line(owner, la)
			}
		} else if ol != nil && ol.State == Modified {
			// Owner downgrades M -> O and keeps supplying data.
			ol.State = Owned
		}
	case h.L3.Probe(la) != nil:
		// 2-hop L3 hit. The L3 is exclusive with the L2s: the line
		// moves out of the L3 into the requester's L2.
		ctr.L3Hits++
		l3l := h.L3.Probe(la)
		dirty := l3l.State.Dirty()
		h.L3.Invalidate(la)
		ready = atDir + h.l3AccessLat + h.cfg.NetHopLat
		src = SrcL3
		if want == Shared && dirty {
			// Preserve writeback responsibility: the requester
			// becomes the owner of the dirty line.
			want = Owned
		}
	default:
		// Off-chip memory access.
		ctr.MemAccesses++
		atMem := h.net.Send(bank, h.memEP, atDir)
		ready = h.mem.Read(atMem) + h.cfg.NetHopLat
		src = SrcMem
	}

	switch src {
	case SrcC2C:
		ctr.LatC2C += uint64(ready - now)
	case SrcL3:
		ctr.LatL3 += uint64(ready - now)
	case SrcMem:
		ctr.LatMem += uint64(ready - now)
	}

	// Update the directory.
	switch want {
	case Modified:
		inv := h.Dir.TakeExclusive(la, core)
		h.invalidateMask(la, inv, core)
	case Owned:
		h.Dir.SetOwner(la, core)
	default:
		h.Dir.AddSharer(la, core)
	}

	h.installL2(core, la, want, true)
	return ready, src
}

// installL2 inserts a line into core's private L2, handling the victim:
// coherent victims are written back or migrated to the exclusive L3,
// incoherent victims are silently dropped (a mute core never exposes
// new values outside its private hierarchy).
func (h *Hierarchy) installL2(core int, la uint64, st State, coherent bool) {
	victim, evicted := h.L2[core].Insert(la, st, coherent)
	if !evicted {
		return
	}
	// Inclusion: the L1s may not cache a line the L2 lost.
	h.L1D[core].Invalidate(victim.Addr)
	h.L1I[core].Invalidate(victim.Addr)
	if !victim.Coherent {
		return // incoherent data dies silently
	}
	h.Ctr[core].Writebacks++
	h.Dir.RemoveSharer(victim.Addr, core)
	if victim.State.Dirty() {
		h.installL3(victim.Addr, Modified)
	} else if !h.Dir.Cached(victim.Addr) {
		// Clean victim: keep it on-chip in the L3 only if no other L2
		// still holds it (preserving L2/L3 exclusion).
		h.installL3(victim.Addr, Shared)
	}
}

// installL3 inserts a line into the L3, writing a dirty L3 victim to
// memory.
func (h *Hierarchy) installL3(la uint64, st State) {
	victim, evicted := h.L3.Insert(la, st, true)
	if evicted && victim.State.Dirty() {
		h.mem.Write(0) // posted; charged only against memory bandwidth
	}
}

// invalidateMask invalidates la in every L2 whose bit is set in mask
// (except requester), maintaining L1 inclusion.
func (h *Hierarchy) invalidateMask(la uint64, mask uint32, requester int) {
	for c := 0; mask != 0; c++ {
		if mask&1 != 0 && c != requester {
			h.invalidateL2Line(c, la)
			h.Ctr[requester].Invalidations++
		}
		mask >>= 1
	}
}

func (h *Hierarchy) invalidateL2Line(core int, la uint64) {
	h.L2[core].Invalidate(la)
	h.L1D[core].Invalidate(la)
	h.L1I[core].Invalidate(la)
}

func (h *Hierarchy) fillL1(core int, l1 []*Cache, la uint64, coherent bool) {
	l1[core].Insert(la, Shared, coherent)
}

// --- incoherent (mute) request path -------------------------------------

// IncoherentLoad performs a mute core's load: it may hit incoherent or
// coherent lines in the mute's own hierarchy; on a miss the system
// makes a best-effort attempt to supply the value without changing any
// directory or cache state elsewhere.
func (h *Hierarchy) IncoherentLoad(core int, pa uint64, now sim.Cycle) (sim.Cycle, Source) {
	ctr := &h.Ctr[core]
	ctr.IncoherentLoads++
	la := h.lineAddr(pa)
	if h.L1D[core].Lookup(pa) != nil {
		ctr.L1Hits++
		return now + h.cfg.L1HitLat, SrcL1
	}
	ctr.L1Misses++
	if h.L2[core].Lookup(pa) != nil {
		ctr.L2Hits++
		h.fillL1(core, h.L1D, la, false)
		return now + h.cfg.L2HitLat, SrcL2
	}
	ctr.L2Misses++
	ready, src := h.bestEffortFill(core, la, now)
	h.fillL1(core, h.L1D, la, false)
	return ready, src
}

// IncoherentFetch is the mute instruction-fetch path.
func (h *Hierarchy) IncoherentFetch(core int, pa uint64, now sim.Cycle) (sim.Cycle, Source) {
	ctr := &h.Ctr[core]
	la := h.lineAddr(pa)
	if h.L1I[core].Lookup(pa) != nil {
		ctr.L1Hits++
		return now + h.cfg.L1HitLat, SrcL1
	}
	ctr.L1Misses++
	if h.L2[core].Lookup(pa) != nil {
		ctr.L2Hits++
		h.fillL1(core, h.L1I, la, false)
		return now + h.cfg.L2HitLat, SrcL2
	}
	ctr.L2Misses++
	ready, src := h.bestEffortFill(core, la, now)
	h.fillL1(core, h.L1I, la, false)
	return ready, src
}

// IncoherentStore performs a mute core's store: the new value stays in
// the mute's private hierarchy, marked incoherent, and is never exposed.
func (h *Hierarchy) IncoherentStore(core int, pa uint64, now sim.Cycle) (sim.Cycle, Source) {
	ctr := &h.Ctr[core]
	la := h.lineAddr(pa)
	if l := h.L2[core].Probe(la); l != nil {
		h.L2[core].Lookup(pa)
		ctr.L2Hits++
		l.State = Modified
		l.Coherent = false
		return now + h.cfg.L2HitLat, SrcL2
	}
	ctr.L2Misses++
	ready, _ := h.bestEffortFill(core, la, now)
	if l := h.L2[core].Probe(la); l != nil {
		l.State = Modified
		l.Coherent = false
	}
	return ready + h.cfg.L2HitLat, SrcL2
}

// bestEffortFill sources a line for a mute core without disturbing
// coherence state. Preference order: the owning L2 (typically the vocal
// core, which with an exclusive L3 acquired the line first, making this
// a 3-hop C2C transfer), then the L3 (the line stays in the L3), then
// memory.
func (h *Hierarchy) bestEffortFill(core int, la uint64, now sim.Cycle) (sim.Cycle, Source) {
	ctr := &h.Ctr[core]
	bank := h.bankEP(la)
	atDir := h.net.Send(core, bank, now) + h.cfg.DirLat

	owner := h.Dir.Owner(la)
	switch {
	case owner != NoOwner && owner != core:
		ctr.C2CTransfers++
		atOwner := h.net.Send(bank, owner, atDir)
		ready := atOwner + h.cfg.L2HitLat + h.cfg.NetHopLat
		h.installL2(core, la, Shared, false)
		return ready, SrcC2C
	case h.L3.Probe(la) != nil:
		// The line stays resident in the L3: a mute request must not
		// change the state of the line in any other cache.
		ctr.L3Hits++
		ready := atDir + h.l3AccessLat + h.cfg.NetHopLat
		h.installL2(core, la, Shared, false)
		return ready, SrcL3
	default:
		ctr.MemAccesses++
		atMem := h.net.Send(bank, h.memEP, atDir)
		ready := h.mem.Read(atMem) + h.cfg.NetHopLat
		h.installL2(core, la, Shared, false)
		return ready, SrcMem
	}
}

// --- flush engine --------------------------------------------------------

// FlushL2 models the Leave-DMR cache flush of a mute core in MMM-TP:
// because the cache mixes incoherent lines (normal Reunion operation)
// with coherent lines (VCPU state moved during mode switches), lines
// must be inspected one by one — FlushPerCycle lines per cycle over the
// whole array — writing back dirty coherent lines to the L3 and
// dropping incoherent ones. It returns the cycle at which the flush
// completes and the number of lines written back.
func (h *Hierarchy) FlushL2(core int, now sim.Cycle) (done sim.Cycle, writebacks int) {
	ctr := &h.Ctr[core]
	l2 := h.L2[core]
	wb := 0
	l2.Walk(func(l *Line) bool {
		ctr.FlushedLines++
		if !l.Coherent {
			// Incoherent data is invalidated, never written back.
			h.L1D[core].Invalidate(l.Addr)
			h.L1I[core].Invalidate(l.Addr)
			l.State = Invalid
			return true
		}
		if l.State.Dirty() {
			wb++
			ctr.FlushWritebacks++
			h.Dir.RemoveSharer(l.Addr, core)
			h.installL3(l.Addr, Modified)
			h.L1D[core].Invalidate(l.Addr)
			h.L1I[core].Invalidate(l.Addr)
			l.State = Invalid
		}
		return true
	})
	// Every line frame is inspected, one (FlushPerCycle) per cycle,
	// regardless of occupancy — the paper's pessimistic assumption —
	// plus one cycle per writeback to the shared L3.
	cycles := sim.Cycle(l2.NumLines()/h.cfg.FlushPerCycle) + sim.Cycle(wb)
	return now + cycles, wb
}
