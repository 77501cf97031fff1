package trace

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/workload"
)

// eagerRing is a reuse ring with every entry stored, pre-filled by one
// Uint64n draw per entry: the reference a lazily filled hotSet must be
// indistinguishable from.
type eagerRing struct {
	lines []uint64
	next  int
}

func newEagerRing(r *sim.Rand, capacity int, base, pages uint64) *eagerRing {
	e := &eagerRing{lines: make([]uint64, capacity)}
	for range e.lines {
		e.push(base + r.Uint64n(pages*pageBytes/lineBytes)*lineBytes)
	}
	return e
}

func (e *eagerRing) push(la uint64) {
	e.lines[e.next] = la
	e.next = (e.next + 1) % len(e.lines)
}

// sameRing reports the first index at which h and e differ, or -1.
func sameRing(h *hotSet, e *eagerRing) int {
	if h.size != len(e.lines) {
		return 0
	}
	for i := range e.lines {
		if h.at(i) != e.lines[i] {
			return i
		}
	}
	return -1
}

// TestLazyRingMatchesEager: at every index, before, during and after a
// full wrap of pushes, a lazy ring holds what an eagerly filled ring
// built from the same RNG state holds, picks what it picks, and leaves
// the RNG where the eager fill leaves it.
func TestLazyRingMatchesEager(t *testing.T) {
	for _, capacity := range []int{1, 2, 7, 64, 1000} {
		lr, er := sim.NewRand(uint64(capacity)), sim.NewRand(uint64(capacity))
		lazy := newHotSet(lr, capacity, VAPrivBase, 300)
		eager := newEagerRing(er, capacity, VAPrivBase, 300)
		if lr.Snapshot() != er.Snapshot() {
			t.Fatalf("capacity %d: RNG state after the fill %#x, eager %#x", capacity, lr.Snapshot(), er.Snapshot())
		}
		pushes := sim.NewRand(7)
		for step := 0; step <= 2*capacity+3; step++ {
			if i := sameRing(lazy, eager); i >= 0 {
				t.Fatalf("capacity %d, after %d pushes: entry %d differs", capacity, step, i)
			}
			a, b := sim.NewRand(uint64(step)), sim.NewRand(uint64(step))
			la, ok := lazy.pick(a)
			if !ok || la != eager.lines[b.Intn(capacity)] || a.Snapshot() != b.Snapshot() {
				t.Fatalf("capacity %d, after %d pushes: pick disagrees", capacity, step)
			}
			la = VAPrivBase + pushes.Uint64n(1<<20)*lineBytes
			lazy.push(la)
			eager.push(la)
		}
		if len(lazy.lines) != capacity {
			t.Fatalf("capacity %d: %d lines stored after a full wrap", capacity, len(lazy.lines))
		}
	}
	empty := newHotSet(sim.NewRand(1), 0, VAPrivBase, 300)
	if _, ok := empty.pick(sim.NewRand(1)); ok {
		t.Fatal("an empty ring picked a line")
	}
}

// TestNewInGuestLeavesEagerState: a generator's rings hold what the
// eager fill put in them, ring by ring in fill order, and its RNG ends
// where the eager fill left it — so the stream continues identically.
func TestNewInGuestLeavesEagerState(t *testing.T) {
	for _, p := range workload.All() {
		for _, seed := range []uint64{1, 11} {
			g := New(p, seed)
			r := sim.NewRand(seed)
			r.Around(p.UserInstrsPerTrap)
			rings := []struct {
				name        string
				lazy        *hotSet
				size        int
				base, pages uint64
			}{
				{"warmPriv", g.warmPriv, p.WarmLines, VAPrivBase, p.PrivPages},
				{"hotPriv", g.hotPriv, p.HotLines, VAPrivBase, p.PrivPages},
				{"warmShared", g.warmShared, p.WarmLines / 2, VASharedBase, p.SharedPages},
				{"hotShared", g.hotShared, p.HotLines / 2, VASharedBase, p.SharedPages},
				{"warmOS", g.warmOS, p.WarmLines / 2, VAOSDataBase, p.OSPages},
				{"hotOS", g.hotOS, p.HotLines / 2, VAOSDataBase, p.OSPages},
				{"warmCode", g.warmCode, p.ICHotLines * 4, VACodeBase, p.CodePages},
				{"hotCode", g.hotCode, p.ICHotLines, VACodeBase, p.CodePages},
				{"warmOSCode", g.warmOSCode, p.ICHotLines * 4, VAOSCodeBase, p.OSCodePages},
				{"hotOSCode", g.hotOSCode, p.ICHotLines, VAOSCodeBase, p.OSCodePages},
			}
			for _, ring := range rings {
				eager := newEagerRing(r, ring.size, ring.base, ring.pages)
				if i := sameRing(ring.lazy, eager); i >= 0 {
					t.Fatalf("%s/%d: ring %s differs from the eager fill at entry %d", p.Name, seed, ring.name, i)
				}
			}
			if g.rng.Snapshot() != r.Snapshot() {
				t.Fatalf("%s/%d: RNG state %#x after construction, eager fill %#x",
					p.Name, seed, g.rng.Snapshot(), r.Snapshot())
			}
		}
	}
}
