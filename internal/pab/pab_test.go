package pab

import (
	"testing"
	"testing/quick"

	"repro/internal/cache"
	"repro/internal/paging"
	"repro/internal/sim"
)

func rig(t testing.TB) (*sim.Config, *paging.PhysMap, *Table, *cache.Hierarchy) {
	t.Helper()
	cfg := sim.DefaultConfig()
	cfg.Cores = 2
	pm := paging.NewPhysMap(1<<30, cfg.PageBytes) // 1 GB
	tab := NewTable(pm)
	h := cache.New(cfg)
	return cfg, pm, tab, h
}

func TestPATReflectsOwnership(t *testing.T) {
	_, pm, tab, _ := rig(t)
	rel := pm.Alloc(4, paging.DomainReliable, 0)
	perf := pm.Alloc(4, paging.DomainPerformance, 1)
	// NewTable initialized before these allocations; system software
	// updates the PAT as it assigns pages.
	tab.Update(rel, pm.ReliableOnly(rel))
	tab.Update(perf, pm.ReliableOnly(perf))
	if !tab.ReliableOnly(rel) {
		t.Fatal("reliable page not marked reliable-only")
	}
	if tab.ReliableOnly(perf) {
		t.Fatal("performance page marked reliable-only")
	}
	// Out-of-range physical addresses are never writable.
	if !tab.ReliableOnly(1 << 40) {
		t.Fatal("out-of-range page must be reliable-only")
	}
}

func TestPATSizing(t *testing.T) {
	// 1 bit per 8 KB page: 1 TB of physical memory needs 16 MB of PAT,
	// so our 1 GB needs 16 KB.
	_, _, tab, _ := rig(t)
	pages := uint64(1<<30) / 8192
	if got := uint64(len(tab.bits)) * 8; got != pages/8 {
		t.Fatalf("PAT occupies %d bytes, want %d", got, pages/8)
	}
}

func TestCheckStoreAllowsOwnPages(t *testing.T) {
	cfg, pm, tab, h := rig(t)
	perf := pm.Alloc(8, paging.DomainPerformance, 1)
	for i := uint64(0); i < 8; i++ {
		tab.Update(perf+i, false)
	}
	p := New(cfg, tab, h, 0)
	pa := perf << pm.PageShift()
	extra, fault := p.CheckStore(0, pa, 1000)
	if fault {
		t.Fatal("store to an owned page raised an exception")
	}
	if extra == 0 {
		t.Fatal("first access must pay the PAB refill")
	}
	// Second store to the same PAT line: PAB hit, parallel lookup,
	// zero extra latency.
	extra, fault = p.CheckStore(0, pa+64, 2000)
	if fault || extra != 0 {
		t.Fatalf("PAB hit should be free in parallel mode: extra=%d fault=%v", extra, fault)
	}
	if p.C.PABChecks != 2 || p.C.PABMisses != 1 {
		t.Fatalf("counters: %d checks %d misses", p.C.PABChecks, p.C.PABMisses)
	}
}

func TestCheckStoreBlocksReliablePages(t *testing.T) {
	cfg, pm, tab, h := rig(t)
	rel := pm.Alloc(2, paging.DomainReliable, 0)
	tab.Update(rel, true)
	p := New(cfg, tab, h, 0)
	pa := rel << pm.PageShift()
	_, fault := p.CheckStore(0, pa, 100)
	if !fault {
		t.Fatal("store to a reliable-only page not blocked")
	}
	if p.C.PABExceptions != 1 {
		t.Fatal("exception not counted")
	}
}

func TestDisabledPABCountsWouldCorrupt(t *testing.T) {
	cfg, pm, tab, h := rig(t)
	rel := pm.Alloc(1, paging.DomainReliable, 0)
	tab.Update(rel, true)
	p := New(cfg, tab, h, 0)
	p.Enabled = false
	extra, fault := p.CheckStore(0, rel<<pm.PageShift(), 100)
	if fault || extra != 0 {
		t.Fatal("disabled PAB must not block or delay")
	}
	if p.WouldCorrupt != 1 {
		t.Fatal("silent corruption not counted")
	}
}

func TestSerialLookupCostsTwoCycles(t *testing.T) {
	cfg, pm, tab, h := rig(t)
	perf := pm.Alloc(1, paging.DomainPerformance, 1)
	tab.Update(perf, false)
	p := New(cfg, tab, h, 0)
	p.Serial = true
	pa := perf << pm.PageShift()
	p.CheckStore(0, pa, 100) // fill
	extra, _ := p.CheckStore(0, pa+8, 200)
	if extra != cfg.PABSerialLat {
		t.Fatalf("serial hit extra = %d, want %d", extra, cfg.PABSerialLat)
	}
}

func TestDemapInvalidation(t *testing.T) {
	cfg, pm, tab, h := rig(t)
	perf := pm.Alloc(1, paging.DomainPerformance, 1)
	tab.Update(perf, false)
	p := New(cfg, tab, h, 0)
	pa := perf << pm.PageShift()
	p.CheckStore(0, pa, 100)
	if p.Occupancy() != 1 {
		t.Fatalf("occupancy = %d", p.Occupancy())
	}
	p.InvalidateForPage(perf)
	if p.Occupancy() != 0 {
		t.Fatal("demap did not invalidate the covering entry")
	}
	// The next check must miss (and re-read the PAT).
	misses := p.C.PABMisses
	p.CheckStore(0, pa, 200)
	if p.C.PABMisses != misses+1 {
		t.Fatal("stale PAB entry survived the demap")
	}
}

func TestPATUpdateInvalidatesLine(t *testing.T) {
	cfg, pm, tab, h := rig(t)
	perf := pm.Alloc(1, paging.DomainPerformance, 1)
	tab.Update(perf, false)
	p := New(cfg, tab, h, 0)
	pa := perf << pm.PageShift()
	if _, fault := p.CheckStore(0, pa, 100); fault {
		t.Fatal("setup store blocked")
	}
	// System software reassigns the page to a reliable application.
	line := tab.Update(perf, true)
	p.InvalidateLine(line)
	if _, fault := p.CheckStore(0, pa, 200); !fault {
		t.Fatal("store allowed after the page became reliable-only")
	}
}

// TestPABAlwaysAgreesWithPAT is the coherence property: after any mix
// of updates and demap invalidations, CheckStore's verdict always
// matches the PAT's current contents.
func TestPABAlwaysAgreesWithPAT(t *testing.T) {
	cfg, pm, tab, h := rig(t)
	base := pm.Alloc(256, paging.DomainPerformance, 1)
	p := New(cfg, tab, h, 0)
	now := sim.Cycle(0)
	err := quick.Check(func(ops []struct {
		Page   uint8
		Toggle bool
	}) bool {
		for _, op := range ops {
			page := base + uint64(op.Page)
			now += 100
			if op.Toggle {
				line := tab.Update(page, !tab.ReliableOnly(page))
				p.InvalidateLine(line)
				continue
			}
			_, fault := p.CheckStore(0, page<<pm.PageShift(), now)
			if fault != tab.ReliableOnly(page) {
				return false
			}
		}
		return true
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestCoverage(t *testing.T) {
	cfg, pm, tab, h := rig(t)
	p := New(cfg, tab, h, 0)
	// 128 entries x 512 pages x 8 KB = 512 MB, as the paper states.
	if got := p.CoveragePages() * uint64(cfg.PageBytes); got != 512<<20 {
		t.Fatalf("coverage = %d MB, want 512", got>>20)
	}
	_ = pm
}

// TestSyncMatchesLayout: a PAT synced from a layout marks exactly the
// performance-owned pages writable — the allocated prefix page by page,
// and every free page above it reliable-only — checked against a dense
// per-page copy of the layout.
func TestSyncMatchesLayout(t *testing.T) {
	_, pm, tab, _ := rig(t)
	owner := make([]paging.Domain, pm.Pages()) // zero: DomainSystem
	r := sim.NewRand(3)
	for i := 0; i < 300; i++ {
		n := 1 + r.Uint64n(200)
		d := paging.Domain(r.Intn(4))
		first := pm.Alloc(n, d, i%5)
		for p := first; p < first+n; p++ {
			owner[p] = d
		}
	}
	tab.Sync(pm)
	for p := uint64(0); p < pm.Pages(); p++ {
		if want := owner[p] != paging.DomainPerformance; tab.ReliableOnly(p) != want {
			t.Fatalf("page %d (allocated %d): PAT reliable-only %v, layout says %v",
				p, pm.Allocated(), tab.ReliableOnly(p), want)
		}
	}
}
