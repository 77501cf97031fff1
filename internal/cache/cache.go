// Package cache implements the full memory hierarchy of the target
// multicore: split write-through L1 instruction/data caches, a private
// L2 per core, a shared L3 that maintains exclusion with the L2s (like
// the IBM Power5 and AMD quad-core Opteron the paper cites), a MOSI
// directory protocol with shadow tags co-located with the L3 banks, a
// bandwidth-limited memory controller, and the incoherent-request path
// that Reunion's mute cores use.
package cache

// State is the MOSI coherence state of a line in a private L2.
type State uint8

const (
	// Invalid: the line is not present.
	Invalid State = iota
	// Shared: a read-only copy; other caches may also hold copies.
	Shared
	// Owned: a dirty copy responsible for supplying data and for the
	// eventual writeback; other caches may hold Shared copies.
	Owned
	// Modified: the only copy, dirty.
	Modified
)

// String names the state.
func (s State) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Owned:
		return "O"
	case Modified:
		return "M"
	default:
		return "?"
	}
}

// Dirty reports whether a line in this state holds data newer than the
// next level.
func (s State) Dirty() bool { return s == Owned || s == Modified }

// Line is one cache line's metadata. Data values are not stored — the
// simulator is timing-directed — but the Coherent bit is real state the
// paper adds: a mute core's cache simultaneously holds incoherent lines
// (normal Reunion operation) and coherent lines (VCPU state moved
// during a mode switch), and the flush on Leave-DMR must inspect lines
// one by one to tell them apart.
type Line struct {
	Addr     uint64 // line-aligned physical address
	State    State
	Coherent bool
	lru      uint64
}

// Cache is one set-associative cache array with LRU replacement.
type Cache struct {
	name      string
	sets      int
	ways      int
	lineSize  uint64
	lineShift uint   // log2(lineSize)
	setMask   uint64 // sets-1
	lines     []Line // sets*ways entries
	tick      uint64

	Hits   uint64
	Misses uint64
}

// NewCache builds a cache of size bytes with the given associativity
// and line size.
func NewCache(name string, size, ways, lineSize int) *Cache {
	return newCache(nil, name, size, ways, lineSize)
}

func newCache(r *Recycler, name string, size, ways, lineSize int) *Cache {
	sets := size / (ways * lineSize)
	if sets == 0 || sets&(sets-1) != 0 {
		panic("cache: set count must be a positive power of two: " + name)
	}
	if lineSize <= 0 || lineSize&(lineSize-1) != 0 {
		panic("cache: line size must be a positive power of two: " + name)
	}
	shift := uint(0)
	for 1<<shift != lineSize {
		shift++
	}
	return &Cache{
		name:      name,
		sets:      sets,
		ways:      ways,
		lineSize:  uint64(lineSize),
		lineShift: shift,
		setMask:   uint64(sets - 1),
		lines:     r.get(sets * ways),
	}
}

// Recycler recycles the line arrays of dead cache hierarchies across
// chip constructions. Campaign workers build thousands of short-lived
// chips, and each hierarchy carries several megabytes of line metadata;
// reusing the arrays keeps that churn out of the garbage collector. A
// recycled array is zeroed before reuse, so a chip built from recycled
// arrays is indistinguishable from a freshly allocated one. A Recycler
// is single-owner state (one per campaign worker), not safe for
// concurrent use. The nil *Recycler is valid and always allocates.
type Recycler struct {
	free map[int][][]Line
}

// NewRecycler returns an empty recycler.
func NewRecycler() *Recycler {
	return &Recycler{free: make(map[int][][]Line)}
}

// get returns a zeroed line array of length n, recycled if available.
func (r *Recycler) get(n int) []Line {
	if r == nil {
		return make([]Line, n)
	}
	bucket := r.free[n]
	if len(bucket) == 0 {
		return make([]Line, n)
	}
	a := bucket[len(bucket)-1]
	r.free[n] = bucket[:len(bucket)-1]
	clear(a)
	return a
}

// put returns a line array to the recycler.
func (r *Recycler) put(a []Line) {
	if r == nil || a == nil {
		return
	}
	r.free[len(a)] = append(r.free[len(a)], a)
}

// release hands the cache's line array back to the recycler; the cache
// must not be used afterwards.
func (c *Cache) release(r *Recycler) {
	r.put(c.lines)
	c.lines = nil
}

// Name returns the cache's name (for diagnostics).
func (c *Cache) Name() string { return c.name }

// Sets returns the number of sets.
func (c *Cache) Sets() int { return c.sets }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }

// NumLines returns the total line capacity.
func (c *Cache) NumLines() int { return c.sets * c.ways }

// LineAddr aligns a physical address down to its line address.
func (c *Cache) LineAddr(pa uint64) uint64 { return pa &^ (c.lineSize - 1) }

func (c *Cache) setOf(lineAddr uint64) int {
	return int((lineAddr >> c.lineShift) & c.setMask)
}

// Lookup returns the line holding pa, or nil on miss. A hit refreshes
// LRU state.
func (c *Cache) Lookup(pa uint64) *Line {
	la := c.LineAddr(pa)
	set := c.setOf(la)
	base := set * c.ways
	for i := 0; i < c.ways; i++ {
		l := &c.lines[base+i]
		if l.State != Invalid && l.Addr == la {
			c.tick++
			l.lru = c.tick
			c.Hits++
			return l
		}
	}
	c.Misses++
	return nil
}

// Probe is like Lookup but does not count a hit/miss or touch LRU
// state; used by the directory and by incoherent best-effort peeks.
func (c *Cache) Probe(pa uint64) *Line {
	la := c.LineAddr(pa)
	set := c.setOf(la)
	base := set * c.ways
	for i := 0; i < c.ways; i++ {
		l := &c.lines[base+i]
		if l.State != Invalid && l.Addr == la {
			return l
		}
	}
	return nil
}

// Insert places a line for pa with the given state, returning the
// evicted victim (valid=true) if a valid line had to be displaced.
func (c *Cache) Insert(pa uint64, st State, coherent bool) (victim Line, evicted bool) {
	la := c.LineAddr(pa)
	set := c.setOf(la)
	base := set * c.ways
	c.tick++
	// Reuse an existing copy if present; otherwise prefer an invalid
	// way; otherwise evict the LRU line.
	invalidIdx := -1
	lruIdx := 0
	var oldest uint64 = ^uint64(0)
	for i := 0; i < c.ways; i++ {
		l := &c.lines[base+i]
		if l.State != Invalid && l.Addr == la {
			l.State = st
			l.Coherent = coherent
			l.lru = c.tick
			return Line{}, false
		}
		if l.State == Invalid {
			if invalidIdx == -1 {
				invalidIdx = i
			}
		} else if l.lru < oldest {
			oldest = l.lru
			lruIdx = i
		}
	}
	victimIdx := invalidIdx
	if victimIdx == -1 {
		victimIdx = lruIdx
	}
	v := c.lines[base+victimIdx]
	c.lines[base+victimIdx] = Line{Addr: la, State: st, Coherent: coherent, lru: c.tick}
	if v.State != Invalid {
		return v, true
	}
	return Line{}, false
}

// Invalidate removes the line holding pa, returning its previous
// metadata if it was present.
func (c *Cache) Invalidate(pa uint64) (Line, bool) {
	la := c.LineAddr(pa)
	set := c.setOf(la)
	base := set * c.ways
	for i := 0; i < c.ways; i++ {
		l := &c.lines[base+i]
		if l.State != Invalid && l.Addr == la {
			old := *l
			l.State = Invalid
			return old, true
		}
	}
	return Line{}, false
}

// Walk calls fn for every valid line. fn may mutate the line; if fn
// returns false the walk stops. Iteration order is deterministic
// (set-major), which the Leave-DMR flush engine relies on.
func (c *Cache) Walk(fn func(l *Line) bool) {
	for i := range c.lines {
		if c.lines[i].State != Invalid {
			if !fn(&c.lines[i]) {
				return
			}
		}
	}
}

// Occupancy returns the number of valid lines.
func (c *Cache) Occupancy() int {
	n := 0
	for i := range c.lines {
		if c.lines[i].State != Invalid {
			n++
		}
	}
	return n
}
