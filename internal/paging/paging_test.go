package paging

import (
	"testing"
	"testing/quick"
)

func newTestMap() *PhysMap {
	return NewPhysMap(64<<20, 8192) // 64 MB, 8 KB pages
}

func TestAllocAssignsOwnership(t *testing.T) {
	pm := newTestMap()
	p := pm.Alloc(4, DomainReliable, 1)
	for i := uint64(0); i < 4; i++ {
		if pm.Owner(p+i) != DomainReliable || pm.Guest(p+i) != 1 {
			t.Fatalf("page %d has wrong ownership", p+i)
		}
		if !pm.ReliableOnly(p + i) {
			t.Fatal("reliable-domain page must be reliable-only")
		}
	}
	q := pm.Alloc(2, DomainPerformance, 2)
	if q < p+4 {
		t.Fatal("allocations overlap")
	}
	if pm.ReliableOnly(q) {
		t.Fatal("performance page must be writable in performance mode")
	}
}

func TestOwnerOfAddr(t *testing.T) {
	pm := newTestMap()
	p := pm.Alloc(1, DomainScratchpad, -1)
	addr := p<<pm.PageShift() | 0x123
	if pm.OwnerOfAddr(addr) != DomainScratchpad {
		t.Fatal("OwnerOfAddr does not match page owner")
	}
}

func TestDomainStrings(t *testing.T) {
	for _, d := range []Domain{DomainSystem, DomainReliable, DomainPerformance, DomainScratchpad} {
		if d.String() == "?" {
			t.Fatalf("domain %d has no name", d)
		}
	}
}

func TestSpaceTranslate(t *testing.T) {
	pm := newTestMap()
	s := NewSpace(1, DomainPerformance, 0, pm)
	r := s.MapRegion("data", 0x10000000, 8)
	pa, ok := s.Translate(0x10000000 + 8192 + 100)
	if !ok {
		t.Fatal("mapped address did not translate")
	}
	wantPage := r.PBase + 1
	if pa>>pm.PageShift() != wantPage || pa&8191 != 100 {
		t.Fatalf("pa = %#x, want page %d offset 100", pa, wantPage)
	}
	if _, ok := s.Translate(0x99990000); ok {
		t.Fatal("unmapped address translated")
	}
}

func TestMapSharedAliases(t *testing.T) {
	pm := newTestMap()
	a := NewSpace(1, DomainPerformance, 0, pm)
	b := NewSpace(2, DomainPerformance, 0, pm)
	r := a.MapRegion("shared", 0x3000_0000, 4)
	b.MapShared("shared", 0x3000_0000, r)
	pa1, _ := a.Translate(0x3000_0000 + 4096)
	pa2, _ := b.Translate(0x3000_0000 + 4096)
	if pa1 != pa2 {
		t.Fatalf("shared mapping differs: %#x vs %#x", pa1, pa2)
	}
}

func TestRemapMovesPage(t *testing.T) {
	pm := newTestMap()
	s := NewSpace(1, DomainPerformance, 0, pm)
	s.MapRegion("data", 0, 2)
	oldPA, _ := s.Translate(8192)
	oldP, newP, ok := s.Remap(8192)
	if !ok {
		t.Fatal("remap failed")
	}
	if oldP != oldPA>>pm.PageShift() {
		t.Fatal("wrong old page reported")
	}
	newPA, _ := s.Translate(8192)
	if newPA>>pm.PageShift() != newP || newP == oldP {
		t.Fatal("translation does not point at the new page")
	}
}

func TestTLBHitAfterFill(t *testing.T) {
	pm := newTestMap()
	s := NewSpace(1, DomainPerformance, 0, pm)
	s.MapRegion("data", 0, 4)
	tlb := NewTLB(64)
	_, hit, ok := tlb.Lookup(s, 100)
	if !ok || hit {
		t.Fatal("first access should be a miss that fills")
	}
	_, hit, ok = tlb.Lookup(s, 200)
	if !ok || !hit {
		t.Fatal("second access to the same page should hit")
	}
	if tlb.Misses != 1 {
		t.Fatalf("misses = %d, want 1", tlb.Misses)
	}
}

func TestTLBASIDIsolation(t *testing.T) {
	pm := newTestMap()
	a := NewSpace(1, DomainPerformance, 0, pm)
	b := NewSpace(2, DomainPerformance, 0, pm)
	a.MapRegion("d", 0, 1)
	b.MapRegion("d", 0, 1)
	tlb := NewTLB(64)
	paA, _, _ := tlb.Lookup(a, 0)
	paB, _, _ := tlb.Lookup(b, 0)
	if paA == paB {
		t.Fatal("different address spaces map to the same frame")
	}
	// Re-lookups must return the same translations (no ASID mixing).
	paA2, hit, _ := tlb.Lookup(a, 0)
	if !hit || paA2 != paA {
		t.Fatal("ASID confusion on re-lookup")
	}
}

func TestTLBDemapNotifies(t *testing.T) {
	pm := newTestMap()
	s := NewSpace(1, DomainPerformance, 0, pm)
	s.MapRegion("d", 0, 2)
	tlb := NewTLB(64)
	var demapped []uint64
	tlb.OnDemap(func(p uint64) { demapped = append(demapped, p) })
	pa, _, _ := tlb.Lookup(s, 8192)
	tlb.Demap(1, 1)
	if len(demapped) != 1 || demapped[0] != pa>>pm.PageShift() {
		t.Fatalf("demap notification wrong: %v", demapped)
	}
	if _, hit, _ := tlb.Lookup(s, 8192); hit {
		t.Fatal("translation survived demap")
	}
}

func TestTLBCorruptEntry(t *testing.T) {
	pm := newTestMap()
	s := NewSpace(1, DomainPerformance, 0, pm)
	s.MapRegion("d", 0, 1)
	tlb := NewTLB(64)
	good, _, _ := tlb.Lookup(s, 0)
	if !tlb.CorruptEntry(1, 0, 3) {
		t.Fatal("corruption target not found")
	}
	bad, hit, _ := tlb.Lookup(s, 0)
	if !hit {
		t.Fatal("corrupted entry should still hit")
	}
	if bad == good {
		t.Fatal("corruption had no effect")
	}
	if bad>>pm.PageShift() != (good>>pm.PageShift())^8 {
		t.Fatalf("wrong bit flipped: %#x vs %#x", bad, good)
	}
}

// TestTLBEvictionConsistency: whatever the access pattern, a hit must
// return the page-table translation (never a stale or mixed frame).
func TestTLBEvictionConsistency(t *testing.T) {
	pm := NewPhysMap(512<<20, 8192)
	s := NewSpace(3, DomainPerformance, 0, pm)
	s.MapRegion("d", 0, 4096)
	tlb := NewTLB(16)
	err := quick.Check(func(pages []uint16) bool {
		for _, pRaw := range pages {
			va := uint64(pRaw%4096) * 8192
			pa, _, ok := tlb.Lookup(s, va)
			if !ok {
				return false
			}
			want, _ := s.Translate(va)
			if pa != want {
				return false
			}
		}
		return true
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestTLBCorruptUseReportedOnce(t *testing.T) {
	pm := newTestMap()
	s := NewSpace(1, DomainPerformance, 0, pm)
	s.MapRegion("d", 0, 1)
	tlb := NewTLB(64)
	var uses int
	tlb.OnCorruptUse(func(vpage, ppage uint64) { uses++ })
	tlb.Lookup(s, 0)
	if !tlb.CorruptEntry(1, 0, 3) {
		t.Fatal("corruption target not found")
	}
	if uses != 0 {
		t.Fatal("corrupt-use fired before any use")
	}
	tlb.Lookup(s, 0)
	tlb.Lookup(s, 0)
	tlb.Lookup(s, 0)
	if uses != 1 {
		t.Fatalf("corrupt-use fired %d times, want exactly once", uses)
	}
}

func TestTLBFlushClearsEverything(t *testing.T) {
	pm := newTestMap()
	s := NewSpace(1, DomainPerformance, 0, pm)
	s.MapRegion("d", 0, 2)
	tlb := NewTLB(64)
	var demapped int
	tlb.OnDemap(func(uint64) { demapped++ })
	good, _, _ := tlb.Lookup(s, 0)
	tlb.CorruptEntry(1, 0, 3)
	tlb.Flush()
	// No demap notifications: the page tables did not change.
	if demapped != 0 {
		t.Fatalf("flush fired %d demap notifications", demapped)
	}
	pa, hit, ok := tlb.Lookup(s, 0)
	if hit {
		t.Fatal("entry survived the flush")
	}
	if !ok || pa != good {
		t.Fatalf("refill after flush returned %#x, want the correct %#x", pa, good)
	}
}

// TestUnallocatedPagesReadAsSystem: the map stores only allocated
// pages; every page from Allocated() to Pages() reads as free system
// memory, and a page past Pages() still fails.
func TestUnallocatedPagesReadAsSystem(t *testing.T) {
	pm := newTestMap()
	if pm.Pages() != 8192 || pm.Allocated() != 0 {
		t.Fatalf("fresh map: %d pages, %d allocated", pm.Pages(), pm.Allocated())
	}
	pm.Alloc(3, DomainPerformance, 2)
	pm.Alloc(2, DomainReliable, 1)
	if pm.Allocated() != 5 {
		t.Fatalf("allocated %d pages, want 5", pm.Allocated())
	}
	for _, p := range []uint64{5, 6, 4000, pm.Pages() - 1} {
		if pm.Owner(p) != DomainSystem || pm.Guest(p) != -1 || !pm.ReliableOnly(p) {
			t.Fatalf("free page %d reads as %v guest %d", p, pm.Owner(p), pm.Guest(p))
		}
	}
	if pm.OwnerOfAddr(pm.Pages()<<pm.PageShift()-1) != DomainSystem {
		t.Fatal("last byte of memory is not free system memory")
	}
	for name, access := range map[string]func(){
		"Owner":        func() { pm.Owner(pm.Pages()) },
		"Guest":        func() { pm.Guest(pm.Pages()) },
		"OwnerOfAddr":  func() { pm.OwnerOfAddr(pm.Pages() << pm.PageShift()) },
		"ReliableOnly": func() { pm.ReliableOnly(pm.Pages() + 100) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s past Pages() did not fail", name)
				}
			}()
			access()
		}()
	}
	defer func() {
		if recover() == nil {
			t.Error("allocating past Pages() did not fail")
		}
	}()
	pm.Alloc(pm.Pages()-4, DomainSystem, -1)
}
