package trace

import (
	"testing"
	"testing/quick"

	"repro/internal/isa"
	"repro/internal/workload"
)

func apache(t testing.TB) *workload.Params {
	p, err := workload.ByName("apache")
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestGenDeterminism is the property the Reunion pair depends on: two
// generators with identical parameters produce bit-identical streams.
func TestGenDeterminism(t *testing.T) {
	p := apache(t)
	gs := NewGuestState(p)
	a := NewInGuest(p, 99, gs)
	b := NewInGuest(p, 99, NewGuestState(p))
	for i := 0; i < 50_000; i++ {
		x, y := a.Next(), b.Next()
		if x != y {
			t.Fatalf("streams diverged at %d: %+v vs %+v", i, x, y)
		}
	}
}

func TestGenSeedsDiffer(t *testing.T) {
	p := apache(t)
	a := New(p, 1)
	b := New(p, 2)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Next() == b.Next() {
			same++
		}
	}
	if same > 10 {
		t.Fatalf("different seeds produced %d/1000 identical instructions", same)
	}
}

func TestInstructionMix(t *testing.T) {
	p := apache(t)
	g := New(p, 7)
	counts := make(map[isa.Class]int)
	const n = 400_000
	for i := 0; i < n; i++ {
		counts[g.Next().Class]++
	}
	loads := float64(counts[isa.Load]) / n
	stores := float64(counts[isa.Store]) / n
	branches := float64(counts[isa.Branch]) / n
	// The stream mixes user and OS phases; both mixes are ~0.24-0.28
	// loads, ~0.11-0.13 stores, ~0.14-0.18 branches.
	if loads < 0.20 || loads > 0.33 {
		t.Errorf("load fraction %v out of range", loads)
	}
	if stores < 0.08 || stores > 0.17 {
		t.Errorf("store fraction %v out of range", stores)
	}
	if branches < 0.10 || branches > 0.23 {
		t.Errorf("branch fraction %v out of range", branches)
	}
	diff := counts[isa.TrapEnter] - counts[isa.TrapReturn]
	if counts[isa.TrapEnter] == 0 || diff < 0 || diff > 1 {
		// The stream may end mid-OS-phase, so enters may lead by one.
		t.Errorf("unbalanced traps: %d enters, %d returns",
			counts[isa.TrapEnter], counts[isa.TrapReturn])
	}
}

func TestPhaseAlternation(t *testing.T) {
	p := apache(t)
	g := New(p, 3)
	inOS := false
	for i := 0; i < 300_000; i++ {
		in := g.Next()
		switch in.Class {
		case isa.TrapEnter:
			if inOS {
				t.Fatal("TrapEnter while already in OS")
			}
			inOS = true
		case isa.TrapReturn:
			if !inOS {
				t.Fatal("TrapReturn while in user mode")
			}
			inOS = false
		default:
			if in.Priv != inOS {
				t.Fatalf("instruction privilege %v does not match phase %v", in.Priv, inOS)
			}
		}
	}
	if g.Traps == 0 {
		t.Fatal("no traps generated")
	}
}

func TestAddressesWithinRegions(t *testing.T) {
	p := apache(t)
	g := New(p, 5)
	for i := 0; i < 200_000; i++ {
		in := g.Next()
		if !in.Class.IsMem() {
			continue
		}
		va := in.VA
		ok := (va >= VAPrivBase && va < VAPrivBase+p.PrivPages*pageBytes) ||
			(va >= VASharedBase && va < VASharedBase+p.SharedPages*pageBytes+uint64(p.SyncLines)*(pageBytes+lineBytes)) ||
			(va >= VAOSDataBase && va < VAOSDataBase+p.OSPages*pageBytes+uint64(p.SyncLines)*(pageBytes+lineBytes))
		if !ok {
			t.Fatalf("address %#x outside every data region", va)
		}
	}
}

func TestPCWithinCodeRegions(t *testing.T) {
	p := apache(t)
	g := New(p, 5)
	for i := 0; i < 100_000; i++ {
		in := g.Next()
		userOK := in.PC >= VACodeBase && in.PC < VACodeBase+p.CodePages*pageBytes
		osOK := in.PC >= VAOSCodeBase && in.PC < VAOSCodeBase+p.OSCodePages*pageBytes
		if !userOK && !osOK {
			t.Fatalf("PC %#x outside code regions", in.PC)
		}
	}
}

func TestSyncLinesShared(t *testing.T) {
	p := apache(t)
	gs := NewGuestState(p)
	a := NewInGuest(p, 1, gs)
	b := NewInGuest(p, 2, gs)
	seen := make(map[uint64]int)
	collect := func(g *Gen, bit int) {
		for i := 0; i < 300_000; i++ {
			in := g.Next()
			if in.Class.IsMem() && in.VA >= VASharedBase && in.VA < VAOSCodeBase {
				la := in.VA &^ 63
				for _, s := range gs.syncUser {
					if la == s {
						seen[la] |= bit
					}
				}
			}
		}
	}
	collect(a, 1)
	collect(b, 2)
	both := 0
	for _, v := range seen {
		if v == 3 {
			both++
		}
	}
	if both == 0 {
		t.Fatal("no sync line was touched by both threads")
	}
}

func TestDepBounded(t *testing.T) {
	p := apache(t)
	g := New(p, 11)
	err := quick.Check(func(steps uint8) bool {
		for i := 0; i < int(steps)+1; i++ {
			if in := g.Next(); in.Dep > 48 {
				return false
			}
		}
		return true
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

// take pulls one instruction for side the way the core's fetch stage
// does: Peek, then Consume.
func take(s *Shared, side int) isa.Inst {
	in := s.Peek(side)
	s.Consume(side)
	return in
}

func TestSharedStreamTee(t *testing.T) {
	p := apache(t)
	s := NewShared(NewInGuest(p, 42, NewGuestState(p)))
	ref := NewInGuest(p, 42, NewGuestState(p))
	s.Attach()
	var fromA, fromB, want []isa.Inst
	for i := 0; i < 5000; i++ {
		want = append(want, ref.Next())
	}
	// Interleave pulls with different paces.
	for len(fromA) < 5000 || len(fromB) < 5000 {
		if len(fromA) < 5000 {
			fromA = append(fromA, take(s, 0))
		}
		if len(fromB) < 5000 && len(fromA)%3 == 0 {
			fromB = append(fromB, take(s, 1))
		}
		if len(fromA) == 5000 {
			for len(fromB) < 5000 {
				fromB = append(fromB, take(s, 1))
			}
		}
	}
	for i := range want {
		if fromA[i] != want[i] || fromB[i] != want[i] {
			t.Fatalf("tee diverged at %d", i)
		}
	}
}

func TestSharedPeekDoesNotConsume(t *testing.T) {
	p := apache(t)
	s := NewShared(New(p, 9))
	ref := New(p, 9)
	pk := s.Peek(0)
	if again := s.Peek(0); again != pk {
		t.Fatal("Peek advanced the stream")
	}
	if want := ref.Next(); pk != want {
		t.Fatal("Peek did not return the stream head")
	}
	s.Consume(0)
	if got, want := s.Peek(0), ref.Next(); got != want {
		t.Fatal("Consume did not advance past exactly the Peeked instruction")
	}
}

func TestSharedAttachAtVocalPosition(t *testing.T) {
	p := apache(t)
	s := NewShared(New(p, 13))
	for i := 0; i < 100; i++ {
		take(s, 0)
	}
	pk := s.Peek(0)
	s.Attach()
	if got := take(s, 1); got != pk {
		t.Fatal("mute did not start at the vocal's position")
	}
	if s.Skew() != -1 {
		t.Fatalf("skew = %d, want -1 (mute consumed one, vocal not yet)", s.Skew())
	}
	s.Detach()
	// Vocal continues unperturbed.
	if got := take(s, 0); got != pk {
		t.Fatal("vocal stream disturbed by attach/detach")
	}
}

func TestSideSourceAdapters(t *testing.T) {
	p := apache(t)
	s := NewShared(New(p, 17))
	s.Attach()
	v, m := s.Side(0), s.Side(1)
	for i := 0; i < 1000; i++ {
		a := v.Peek()
		if again := v.Peek(); again != a {
			t.Fatal("vocal side Peek advanced the stream")
		}
		v.Consume()
		if got := m.Peek(); got != a {
			t.Fatal("sides diverged")
		}
		m.Consume()
	}
}
