package cache

// NoOwner marks a directory entry with no owning L2.
const NoOwner = -1

// dirEntry is the shadow-tag directory state for one line: which L2 (if
// any) owns it (holds it in M or O), and which L2s hold Shared copies.
// Shadow tags are co-located with the L3 banks in the target machine.
type dirEntry struct {
	owner   int8
	sharers uint32 // bitmask over cores (up to 32)
}

// Directory is the MOSI directory. It is authoritative for coherent
// requests only: mute (incoherent) requests neither consult nor modify
// it beyond a read-only probe.
type Directory struct {
	entries map[uint64]dirEntry

	Lookups uint64
}

// NewDirectory returns an empty directory.
func NewDirectory() *Directory {
	return &Directory{entries: make(map[uint64]dirEntry)}
}

// lookup fetches the entry for a line address.
func (d *Directory) lookup(la uint64) dirEntry {
	d.Lookups++
	if e, ok := d.entries[la]; ok {
		return e
	}
	return dirEntry{owner: NoOwner}
}

func (d *Directory) store(la uint64, e dirEntry) {
	if e.owner == NoOwner && e.sharers == 0 {
		delete(d.entries, la)
		return
	}
	d.entries[la] = e
}

// Owner returns the core whose L2 owns the line (M or O), or NoOwner.
func (d *Directory) Owner(la uint64) int {
	return int(d.lookup(la).owner)
}

// Sharers returns the bitmask of cores holding Shared copies.
func (d *Directory) Sharers(la uint64) uint32 {
	return d.lookup(la).sharers
}

// AddSharer records that core now holds a Shared copy.
func (d *Directory) AddSharer(la uint64, core int) {
	e := d.lookup(la)
	e.sharers |= 1 << uint(core)
	d.store(la, e)
}

// RemoveSharer records that core no longer holds a copy.
func (d *Directory) RemoveSharer(la uint64, core int) {
	e := d.lookup(la)
	e.sharers &^= 1 << uint(core)
	if e.owner == int8(core) {
		e.owner = NoOwner
	}
	d.store(la, e)
}

// SetOwner records that core's L2 now owns the line (M or O). The owner
// is also recorded as a sharer.
func (d *Directory) SetOwner(la uint64, core int) {
	e := d.lookup(la)
	e.owner = int8(core)
	e.sharers |= 1 << uint(core)
	d.store(la, e)
}

// TakeExclusive records that core now holds the only (Modified) copy,
// returning the previous sharers (excluding core) that must be
// invalidated.
func (d *Directory) TakeExclusive(la uint64, core int) (invalidate uint32) {
	e := d.lookup(la)
	invalidate = e.sharers &^ (1 << uint(core))
	if e.owner != NoOwner && e.owner != int8(core) {
		invalidate |= 1 << uint(e.owner)
	}
	d.store(la, dirEntry{owner: int8(core), sharers: 1 << uint(core)})
	return invalidate
}

// Cached reports whether any L2 holds the line.
func (d *Directory) Cached(la uint64) bool {
	e := d.lookup(la)
	return e.owner != NoOwner || e.sharers != 0
}

// Entries returns the number of tracked lines (for tests and memory
// accounting).
func (d *Directory) Entries() int { return len(d.entries) }
