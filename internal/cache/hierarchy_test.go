package cache

import (
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func smallCfg() *sim.Config {
	cfg := sim.DefaultConfig()
	cfg.Cores = 4
	return cfg
}

func TestLoadMissGoesToMemoryThenL2Hits(t *testing.T) {
	h := New(smallCfg())
	ready, src := h.Load(0, 0x10000, 100)
	if src != SrcMem {
		t.Fatalf("cold load source = %v, want Mem", src)
	}
	if ready < 100+300 {
		t.Fatalf("memory load too fast: %d", ready-100)
	}
	// Same line: L1 hit now.
	ready, src = h.Load(0, 0x10008, 1000)
	if src != SrcL1 || ready != 1000+h.cfg.L1HitLat {
		t.Fatalf("expected L1 hit, got %v at +%d", src, ready-1000)
	}
}

func TestStoreAcquiresModified(t *testing.T) {
	h := New(smallCfg())
	h.Store(1, 0x2000, 0)
	l := h.L2[1].Probe(0x2000)
	if l == nil || l.State != Modified {
		t.Fatalf("store did not leave line Modified: %+v", l)
	}
	if h.Dir.Owner(h.lineAddr(0x2000)) != 1 {
		t.Fatal("directory does not record the owner")
	}
}

func TestC2CTransferOnSharedLoad(t *testing.T) {
	h := New(smallCfg())
	h.Store(0, 0x3000, 0) // core 0 owns the line (M)
	ready, src := h.Load(1, 0x3000, 1000)
	if src != SrcC2C {
		t.Fatalf("load of a modified remote line: source %v, want C2C", src)
	}
	if ready-1000 > 120 {
		t.Fatalf("C2C latency %d looks wrong", ready-1000)
	}
	// MOSI: the old owner downgrades M -> O and keeps supplying.
	if st := h.L2[0].Probe(0x3000).State; st != Owned {
		t.Fatalf("owner state after C2C = %v, want Owned", st)
	}
	if st := h.L2[1].Probe(0x3000).State; st != Shared {
		t.Fatalf("requester state = %v, want Shared", st)
	}
}

func TestStoreInvalidatesSharers(t *testing.T) {
	h := New(smallCfg())
	h.Store(0, 0x4000, 0)
	h.Load(1, 0x4000, 100)
	h.Load(2, 0x4000, 200)
	// Core 3 writes: all other copies must go away.
	h.Store(3, 0x4000, 300)
	for c := 0; c < 3; c++ {
		if h.L2[c].Probe(0x4000) != nil {
			t.Fatalf("core %d retains a stale copy after remote write", c)
		}
	}
	if h.Dir.Owner(h.lineAddr(0x4000)) != 3 {
		t.Fatal("writer is not the owner")
	}
}

func TestUpgradeFromShared(t *testing.T) {
	h := New(smallCfg())
	h.Load(0, 0x5000, 0)  // core 0: S
	h.Load(1, 0x5000, 50) // core 1: S
	ready, _ := h.Store(0, 0x5000, 100)
	if h.L2[0].Probe(0x5000).State != Modified {
		t.Fatal("upgrade did not reach Modified")
	}
	if h.L2[1].Probe(0x5000) != nil {
		t.Fatal("other sharer survived the upgrade")
	}
	if ready-100 > 60 {
		t.Fatalf("upgrade latency %d looks wrong", ready-100)
	}
}

// TestExclusiveL3 verifies L2/L3 exclusion: a line moves L3 -> L2 on a
// fill and back on eviction.
func TestExclusiveL3(t *testing.T) {
	cfg := smallCfg()
	h := New(cfg)
	h.Load(0, 0x6000, 0)
	la := h.lineAddr(0x6000)
	// Force eviction of every set-0-conflicting line by filling the set.
	sets := h.L2[0].Sets()
	ways := h.L2[0].Ways()
	for i := 1; i <= ways; i++ {
		conflict := uint64(0x6000) + uint64(i*sets*cfg.LineSize)
		h.Load(0, conflict, sim.Cycle(1000*i))
	}
	if h.L2[0].Probe(la) != nil {
		t.Fatal("line should have been evicted from L2")
	}
	if h.L3.Probe(la) == nil {
		t.Fatal("clean victim did not land in the L3")
	}
	// Reload: must hit L3 and leave it (exclusion).
	_, src := h.Load(0, 0x6000, 100_000)
	if src != SrcL3 {
		t.Fatalf("reload source = %v, want L3", src)
	}
	if h.L3.Probe(la) != nil {
		t.Fatal("line stayed in L3 after moving to L2 (exclusion violated)")
	}
}

func TestIncoherentLoadDoesNotDisturbState(t *testing.T) {
	h := New(smallCfg())
	h.Store(0, 0x7000, 0) // vocal owns in M
	la := h.lineAddr(0x7000)
	_, src := h.IncoherentLoad(1, 0x7000, 100)
	if src != SrcC2C {
		t.Fatalf("mute load source = %v, want C2C from the vocal", src)
	}
	// The vocal's state and the directory must be untouched.
	if h.L2[0].Probe(la).State != Modified {
		t.Fatal("mute load changed the owner's state")
	}
	if h.Dir.Owner(la) != 0 {
		t.Fatal("mute load changed the directory")
	}
	// The mute's copy is incoherent.
	if l := h.L2[1].Probe(la); l == nil || l.Coherent {
		t.Fatal("mute should hold an incoherent copy")
	}
}

func TestIncoherentLoadLeavesL3Resident(t *testing.T) {
	cfg := smallCfg()
	h := New(cfg)
	// Put a line into L3 via eviction.
	h.Load(0, 0x8000, 0)
	sets := h.L2[0].Sets()
	for i := 1; i <= h.L2[0].Ways(); i++ {
		h.Load(0, uint64(0x8000)+uint64(i*sets*cfg.LineSize), sim.Cycle(100*i))
	}
	la := h.lineAddr(0x8000)
	if h.L3.Probe(la) == nil {
		t.Skip("victim did not reach L3; geometry changed")
	}
	_, src := h.IncoherentLoad(1, 0x8000, 10_000)
	if src != SrcL3 {
		t.Fatalf("source %v, want L3", src)
	}
	if h.L3.Probe(la) == nil {
		t.Fatal("mute L3 access must not remove the line from the L3")
	}
}

func TestIncoherentStoreStaysLocal(t *testing.T) {
	h := New(smallCfg())
	h.IncoherentStore(2, 0x9000, 0)
	la := h.lineAddr(0x9000)
	l := h.L2[2].Probe(la)
	if l == nil || l.Coherent || l.State != Modified {
		t.Fatalf("mute store result wrong: %+v", l)
	}
	if h.Dir.Cached(la) {
		t.Fatal("mute store leaked into the directory")
	}
}

func TestIncoherentVictimDiesSilently(t *testing.T) {
	cfg := smallCfg()
	h := New(cfg)
	h.IncoherentStore(1, 0xa000, 0)
	la := h.lineAddr(0xa000)
	sets := h.L2[1].Sets()
	// Evict it with coherent fills.
	for i := 1; i <= h.L2[1].Ways(); i++ {
		h.Load(1, uint64(0xa000)+uint64(i*sets*cfg.LineSize), sim.Cycle(100*i))
	}
	if h.L2[1].Probe(la) != nil {
		t.Skip("line not evicted; geometry changed")
	}
	if h.L3.Probe(la) != nil {
		t.Fatal("incoherent dirty victim was exposed to the L3")
	}
}

func TestFlushL2Semantics(t *testing.T) {
	cfg := smallCfg()
	h := New(cfg)
	// Mute core 1: one incoherent dirty line, one coherent dirty line
	// (VCPU state), one coherent clean line.
	h.IncoherentStore(1, 0xb000, 0)
	h.Store(1, 0xc000, 10)
	h.Load(1, 0xd000, 50)
	done, wbs := h.FlushL2(1, 1000)
	if wbs != 1 {
		t.Fatalf("writebacks = %d, want 1 (the coherent dirty line)", wbs)
	}
	// Inspecting all 8192 line frames at 1/cycle dominates the cost.
	minCycles := sim.Cycle(h.L2[1].NumLines() / cfg.FlushPerCycle)
	if done-1000 < minCycles {
		t.Fatalf("flush took %d cycles, want >= %d", done-1000, minCycles)
	}
	if h.L2[1].Probe(0xb000) != nil {
		t.Fatal("incoherent line survived the flush")
	}
	if h.L3.Probe(h.lineAddr(0xc000)) == nil {
		t.Fatal("coherent dirty line was not written back to the L3")
	}
	if l := h.L2[1].Probe(0xd000); l == nil {
		t.Fatal("coherent clean line should survive the flush")
	}
}

// TestCoherenceInvariant: under random coherent traffic, at most one
// L2 holds a line in a dirty state, and if any L2 holds it Modified no
// other L2 holds it at all.
func TestCoherenceInvariant(t *testing.T) {
	cfg := smallCfg()
	h := New(cfg)
	now := sim.Cycle(0)
	err := quick.Check(func(ops []struct {
		Core  uint8
		Line  uint8
		Write bool
	}) bool {
		for _, op := range ops {
			core := int(op.Core) % cfg.Cores
			pa := uint64(op.Line) * 64
			now += 10
			if op.Write {
				h.Store(core, pa, now)
			} else {
				h.Load(core, pa, now)
			}
			// Invariant check over all cores for this line.
			dirty, holders := 0, 0
			for c := 0; c < cfg.Cores; c++ {
				if l := h.L2[c].Probe(pa); l != nil && l.Coherent {
					holders++
					if l.State.Dirty() {
						dirty++
						if h.Dir.Owner(h.lineAddr(pa)) != c {
							return false
						}
					}
					if l.State == Modified && holders > 1 {
						return false
					}
				}
			}
			if dirty > 1 {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 40})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSourceStrings(t *testing.T) {
	for _, s := range []Source{SrcL1, SrcL2, SrcC2C, SrcL3, SrcMem} {
		if s.String() == "?" {
			t.Fatalf("source %d unnamed", s)
		}
	}
}

func TestFetchPath(t *testing.T) {
	h := New(smallCfg())
	_, src := h.Fetch(0, 0x1000, 0)
	if src != SrcMem {
		t.Fatalf("cold fetch source %v", src)
	}
	_, src = h.Fetch(0, 0x1004, 500)
	if src != SrcL1 {
		t.Fatalf("warm fetch source %v, want L1I hit", src)
	}
}

func TestTotals(t *testing.T) {
	h := New(smallCfg())
	h.Load(0, 0x100, 0)
	h.Load(1, 0x200, 0)
	tot := h.Totals()
	if tot.MemAccesses != 2 {
		t.Fatalf("totals wrong: %+v", tot)
	}
}
