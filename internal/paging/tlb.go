package paging

// TLBEntry is one translation cached by the hardware TLB.
type TLBEntry struct {
	valid bool
	asid  int
	vpage uint64
	ppage uint64
	lru   uint64
	// corrupt marks an entry whose physical page was flipped by fault
	// injection and whose first use has not yet been reported. The flag
	// is instrumentation only — the flipped ppage itself is the fault.
	corrupt bool
}

// TLB is a set-associative, hardware-filled translation lookaside
// buffer. The paper models a hardware-filled TLB (like Reunion's
// evaluation) so that TLB refills do not serialize the pipeline; a
// miss costs a fixed fill latency instead of trapping to software.
//
// The TLB is also a fault-injection target: a flipped bit in the
// physical page number models the class of faults the PAB exists to
// catch — a successful translation to a physical address the
// application does not own.
type TLB struct {
	sets    int
	ways    int
	setMask uint64
	entries []TLBEntry
	// keys packs each way's (valid, asid, vpage) into one comparable
	// word — (asid+1)<<48 | vpage, 0 when invalid — so the lookup fast
	// path compares one flat uint64 per way instead of three entry
	// fields scattered across a 48-byte struct. Kept in sync with
	// entries by every mutation.
	keys []uint64
	tick uint64

	Lookups uint64
	Misses  uint64
	Demaps  uint64

	// demapListener is notified with the demapped physical page so the
	// PAB can invalidate its corresponding entry (the PAB coherence
	// rule of Section 3.4.1).
	demapListener func(ppage uint64)

	// corruptListener is notified (once per injected corruption) when a
	// translation corrupted by fault injection is actually consumed by
	// the pipeline; reliability evaluation uses it to distinguish faults
	// that propagated from faults that vanished in the array.
	corruptListener func(vpage, ppage uint64)
}

// NewTLB creates a TLB with n entries, 4-way set associative (n must
// be a multiple of 4 with a power-of-two set count).
func NewTLB(n int) *TLB {
	ways := 4
	if n < ways {
		ways = n
	}
	sets := n / ways
	if sets == 0 || sets&(sets-1) != 0 {
		panic("paging: TLB set count must be a positive power of two")
	}
	return &TLB{
		sets:    sets,
		ways:    ways,
		setMask: uint64(sets - 1),
		entries: make([]TLBEntry, n),
		keys:    make([]uint64, n),
	}
}

// OnDemap registers fn to be called with the physical page of every
// demapped translation.
func (t *TLB) OnDemap(fn func(ppage uint64)) { t.demapListener = fn }

// OnCorruptUse registers fn to be called the first time a corrupted
// translation is consumed by a lookup.
func (t *TLB) OnCorruptUse(fn func(vpage, ppage uint64)) { t.corruptListener = fn }

func key(asid int, vpage uint64) uint64 {
	return (uint64(asid)+1)<<48 | vpage
}

func (t *TLB) setOf(asid int, vpage uint64) int {
	return int((vpage ^ uint64(asid)*0x9e37) & t.setMask)
}

// Lookup translates va in the given space. hit is false when the
// translation had to be filled from the page table (costing the fill
// latency); ok is false when the address is unmapped.
func (t *TLB) Lookup(s *Space, va uint64) (pa uint64, hit, ok bool) {
	t.tick++
	t.Lookups++
	vpage := va >> s.phys.pageShift
	off := va & (s.PageBytes() - 1)
	k := key(s.ASID, vpage)
	base := t.setOf(s.ASID, vpage) * t.ways
	for i := 0; i < t.ways; i++ {
		if t.keys[base+i] != k {
			continue
		}
		e := &t.entries[base+i]
		e.lru = t.tick
		if e.corrupt {
			e.corrupt = false
			if t.corruptListener != nil {
				t.corruptListener(e.vpage, e.ppage)
			}
		}
		return e.ppage<<s.phys.pageShift | off, true, true
	}
	// Hardware fill from the page table.
	ppage, found := s.lookup(vpage)
	if !found {
		return 0, false, false
	}
	t.Misses++
	t.insert(s.ASID, vpage, ppage)
	return ppage<<s.phys.pageShift | off, false, true
}

// insert places a translation, evicting the set's LRU entry.
func (t *TLB) insert(asid int, vpage, ppage uint64) {
	base := t.setOf(asid, vpage) * t.ways
	victim := base
	var oldest uint64 = ^uint64(0)
	for i := 0; i < t.ways; i++ {
		e := &t.entries[base+i]
		if !e.valid {
			victim = base + i
			break
		}
		if e.lru < oldest {
			oldest = e.lru
			victim = base + i
		}
	}
	t.entries[victim] = TLBEntry{valid: true, asid: asid, vpage: vpage, ppage: ppage, lru: t.tick}
	t.keys[victim] = key(asid, vpage)
}

// Demap removes any translation for (asid, vpage) and notifies the
// demap listener with the physical page so dependent structures (the
// PAB) stay coherent.
func (t *TLB) Demap(asid int, vpage uint64) {
	base := t.setOf(asid, vpage) * t.ways
	for i := 0; i < t.ways; i++ {
		e := &t.entries[base+i]
		if e.valid && e.asid == asid && e.vpage == vpage {
			e.valid = false
			t.keys[base+i] = 0
			t.Demaps++
			if t.demapListener != nil {
				t.demapListener(e.ppage)
			}
		}
	}
}

// CorruptEntry flips bit in the physical page number of the entry
// currently caching (asid, vpage), modeling a hardware fault in the
// TLB array. It reports whether an entry was present to corrupt.
func (t *TLB) CorruptEntry(asid int, vpage uint64, bit uint) bool {
	base := t.setOf(asid, vpage) * t.ways
	for i := 0; i < t.ways; i++ {
		e := &t.entries[base+i]
		if e.valid && e.asid == asid && e.vpage == vpage {
			e.ppage ^= 1 << bit
			e.corrupt = true
			return true
		}
	}
	return false
}

// Flush invalidates every entry — the software TLB shootdown a
// machine-check handler performs after an unrecoverable translation
// fault. No demap notifications fire: the page tables did not change,
// so PAB contents remain coherent.
func (t *TLB) Flush() {
	for i := range t.entries {
		t.entries[i].valid = false
		t.entries[i].corrupt = false
		t.keys[i] = 0
	}
}

// Entries returns the number of TLB entries.
func (t *TLB) Entries() int { return len(t.entries) }
