package cache

import (
	"testing"
	"testing/quick"
)

func TestCacheHitMiss(t *testing.T) {
	c := NewCache("t", 1024, 2, 64) // 8 sets x 2 ways
	if c.Lookup(0x100) != nil {
		t.Fatal("empty cache hit")
	}
	c.Insert(0x100, Shared, true)
	l := c.Lookup(0x13f) // same line
	if l == nil || l.State != Shared || !l.Coherent {
		t.Fatal("expected hit on the inserted line")
	}
	if c.Hits != 1 || c.Misses != 1 {
		t.Fatalf("hits/misses = %d/%d", c.Hits, c.Misses)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := NewCache("t", 2*64*2, 2, 64) // 2 sets, 2 ways
	// Fill both ways of set 0 (line addresses 0, 256 both map to set 0).
	c.Insert(0, Shared, true)
	c.Insert(256, Shared, true)
	c.Lookup(0) // make line 0 MRU
	victim, evicted := c.Insert(512, Shared, true)
	if !evicted || victim.Addr != 256 {
		t.Fatalf("expected LRU victim 256, got %+v evicted=%v", victim, evicted)
	}
	if c.Probe(0) == nil || c.Probe(512) == nil {
		t.Fatal("resident lines disturbed")
	}
}

func TestCacheInsertUpdatesInPlace(t *testing.T) {
	c := NewCache("t", 1024, 2, 64)
	c.Insert(0x40, Shared, false)
	_, evicted := c.Insert(0x40, Modified, true)
	if evicted {
		t.Fatal("re-inserting the same line must not evict")
	}
	l := c.Probe(0x40)
	if l.State != Modified || !l.Coherent {
		t.Fatal("in-place update failed")
	}
}

func TestCacheInvalidate(t *testing.T) {
	c := NewCache("t", 1024, 2, 64)
	c.Insert(0x80, Owned, true)
	old, ok := c.Invalidate(0x80)
	if !ok || old.State != Owned {
		t.Fatal("invalidate did not return the old line")
	}
	if c.Probe(0x80) != nil {
		t.Fatal("line survived invalidation")
	}
	if _, ok := c.Invalidate(0x80); ok {
		t.Fatal("double invalidation reported success")
	}
}

func TestCacheWalkAndOccupancy(t *testing.T) {
	c := NewCache("t", 1024, 2, 64)
	for i := uint64(0); i < 5; i++ {
		c.Insert(i*64, Shared, i%2 == 0)
	}
	if c.Occupancy() != 5 {
		t.Fatalf("occupancy = %d", c.Occupancy())
	}
	n := 0
	c.Walk(func(l *Line) bool { n++; return true })
	if n != 5 {
		t.Fatalf("walk visited %d lines", n)
	}
	// Walk may mutate the lines it visits, as the Leave-DMR flush does.
	c.Walk(func(l *Line) bool { l.State = Invalid; return true })
	if c.Occupancy() != 0 {
		t.Fatal("invalidating walk left lines")
	}
}

// TestCacheSetBound is the structural property: a set never holds more
// than `ways` lines, and lookups always return the line inserted for
// that address.
func TestCacheSetBound(t *testing.T) {
	c := NewCache("t", 4096, 4, 64) // 16 sets x 4 ways
	err := quick.Check(func(addrs []uint16) bool {
		for _, a := range addrs {
			la := uint64(a) &^ 63
			c.Insert(la, Shared, true)
			got := c.Probe(la)
			if got == nil || got.Addr != la {
				return false
			}
		}
		// Count per set.
		counts := make(map[int]int)
		c.Walk(func(l *Line) bool {
			counts[c.setOf(l.Addr)]++
			return true
		})
		for _, n := range counts {
			if n > 4 {
				return false
			}
		}
		return true
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestStateDirty(t *testing.T) {
	if Invalid.Dirty() || Shared.Dirty() {
		t.Fatal("clean states report dirty")
	}
	if !Owned.Dirty() || !Modified.Dirty() {
		t.Fatal("dirty states report clean")
	}
	for _, s := range []State{Invalid, Shared, Owned, Modified} {
		if s.String() == "?" {
			t.Fatalf("state %d unnamed", s)
		}
	}
}

func TestDirectoryOwnership(t *testing.T) {
	d := NewDirectory()
	if d.Owner(0x1000) != NoOwner {
		t.Fatal("fresh line has an owner")
	}
	d.SetOwner(0x1000, 3)
	if d.Owner(0x1000) != 3 {
		t.Fatal("owner not recorded")
	}
	if d.Sharers(0x1000)&(1<<3) == 0 {
		t.Fatal("owner must also be a sharer")
	}
	d.AddSharer(0x1000, 5)
	inv := d.TakeExclusive(0x1000, 7)
	if inv&(1<<3) == 0 || inv&(1<<5) == 0 || inv&(1<<7) != 0 {
		t.Fatalf("TakeExclusive invalidation mask wrong: %b", inv)
	}
	if d.Owner(0x1000) != 7 || d.Sharers(0x1000) != 1<<7 {
		t.Fatal("exclusive state wrong")
	}
}

func TestDirectoryRemoveSharerClearsEntry(t *testing.T) {
	d := NewDirectory()
	d.SetOwner(0x40, 2)
	d.RemoveSharer(0x40, 2)
	if d.Cached(0x40) {
		t.Fatal("line still cached after last sharer left")
	}
	if d.Entries() != 0 {
		t.Fatal("empty entries must be garbage collected")
	}
}

// TestDirectoryInvariant drives random request sequences and checks
// the MOSI single-owner invariant.
func TestDirectoryInvariant(t *testing.T) {
	d := NewDirectory()
	err := quick.Check(func(ops []struct {
		Line  uint8
		Core  uint8
		Write bool
	}) bool {
		for _, op := range ops {
			la := uint64(op.Line) * 64
			core := int(op.Core % 16)
			if op.Write {
				d.TakeExclusive(la, core)
				if d.Owner(la) != core || d.Sharers(la) != 1<<uint(core) {
					return false
				}
			} else {
				d.AddSharer(la, core)
				if d.Sharers(la)&(1<<uint(core)) == 0 {
					return false
				}
			}
		}
		return true
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestMemoryBandwidthQueueing(t *testing.T) {
	m := &Memory{lat: 100, busyPerLine: 5}
	first := m.Read(0)
	if first != 100 {
		t.Fatalf("first read at %d, want 100", first)
	}
	second := m.Read(0) // queued behind the first
	if second != 105 {
		t.Fatalf("second read at %d, want 105", second)
	}
	// After the channel drains, latency returns to the base value.
	third := m.Read(1000)
	if third != 1100 {
		t.Fatalf("third read at %d, want 1100", third)
	}
	if m.Stalls != 1 {
		t.Fatalf("stalls = %d, want 1", m.Stalls)
	}
}

func TestMemoryWritePosted(t *testing.T) {
	m := &Memory{lat: 100, busyPerLine: 5}
	m.Write(0)
	if got := m.Read(0); got != 105 {
		t.Fatalf("read behind posted write at %d, want 105", got)
	}
}
