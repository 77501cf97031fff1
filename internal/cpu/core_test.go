package cpu

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/isa"
	"repro/internal/paging"
	"repro/internal/sim"
)

// scriptSource feeds a fixed instruction sequence, then NOPs.
type scriptSource struct {
	insts []isa.Inst
	pos   int
	seq   uint64
	pc    uint64
}

func script(insts ...isa.Inst) *scriptSource {
	s := &scriptSource{insts: insts}
	for i := range s.insts {
		s.insts[i].Seq = uint64(i + 1)
		if s.insts[i].PC == 0 {
			s.insts[i].PC = 0x1000 + uint64(i)*4
		}
	}
	return s
}

func (s *scriptSource) at(i int) isa.Inst {
	if i < len(s.insts) {
		return s.insts[i]
	}
	return isa.Inst{
		Seq:    uint64(i + 1),
		PC:     0x1000 + uint64(i%64)*4, // 4-line loop: warms quickly
		Class:  isa.Nop,
		Result: uint64(i),
	}
}

func (s *scriptSource) Peek() isa.Inst { return s.at(s.pos) }
func (s *scriptSource) Consume()       { s.pos++ }

func testRig(t testing.TB, cores int) (*sim.Config, *cache.Hierarchy, *paging.Space) {
	cfg := sim.DefaultConfig()
	cfg.Cores = cores
	h := cache.New(cfg)
	pm := paging.NewPhysMap(256<<20, cfg.PageBytes)
	sp := paging.NewSpace(1, paging.DomainPerformance, 0, pm)
	sp.MapRegion("code", 0x1000&^8191, 16)
	sp.MapRegion("data", 0x2000_0000, 64)
	return cfg, h, sp
}

func run(c *Core, from, n sim.Cycle) sim.Cycle {
	for i := sim.Cycle(0); i < n; i++ {
		c.Tick(from + i)
	}
	return from + n
}

func TestALUThroughput(t *testing.T) {
	cfg, h, sp := testRig(t, 2)
	c := New(0, cfg, h)
	c.SetSpace(sp)
	c.SetSource(script()) // all NOPs on a tight loop of PCs
	run(c, 0, 5_000)      // warm the icache
	base := c.C.Commits
	run(c, 5_000, 20_000)
	ipc := float64(c.C.Commits-base) / 20_000
	// 2-wide with single-cycle ops and warm icache should approach the
	// commit width.
	if ipc < 1.2 {
		t.Fatalf("NOP IPC = %.2f, expected near 2", ipc)
	}
}

func TestDependencyStallsSerialize(t *testing.T) {
	cfg, h, sp := testRig(t, 2)
	// Chain of dependent divides: each depends on the previous one.
	var insts []isa.Inst
	for i := 0; i < 50; i++ {
		insts = append(insts, isa.Inst{Class: isa.Div, Dep: 1})
	}
	c := New(0, cfg, h)
	c.SetSpace(sp)
	c.SetSource(script(insts...))
	run(c, 0, 2000)
	// 50 dependent 12-cycle divides need >= 600 cycles; check the core
	// did not magically parallelize them: at cycle 300 fewer than half
	// should have committed.
	c2 := New(1, cfg, h)
	c2.SetSpace(sp)
	c2.SetSource(script(insts...))
	run(c2, 0, 300)
	if c2.C.Commits > 30 {
		t.Fatalf("dependent divides committed too fast: %d in 300 cycles", c2.C.Commits)
	}
}

func TestStoreHoldsCommit(t *testing.T) {
	cfg, h, sp := testRig(t, 2)
	insts := []isa.Inst{
		{Class: isa.Store, VA: 0x2000_0000},
		{Class: isa.ALU},
		{Class: isa.ALU},
	}
	c := New(0, cfg, h)
	c.SetSpace(sp)
	c.SetSource(script(insts...))
	run(c, 0, 15)
	// The cold store's ownership acquisition goes to memory (~350
	// cycles): nothing can have committed yet (in-order commit).
	if c.C.Commits != 0 {
		t.Fatalf("committed %d instructions behind a blocked store", c.C.Commits)
	}
	run(c, 15, 800)
	if c.C.Commits < 3 {
		t.Fatalf("store never completed: commits=%d", c.C.Commits)
	}
	if c.C.StoreCommitStall == 0 {
		t.Fatal("store commit stall not recorded")
	}
}

func TestSerializingInstructionStallsFetch(t *testing.T) {
	cfg, h, sp := testRig(t, 2)
	insts := []isa.Inst{
		{Class: isa.ALU},
		{Class: isa.Serializing},
		{Class: isa.ALU},
	}
	c := New(0, cfg, h)
	c.SetSpace(sp)
	c.SetSource(script(insts...))
	run(c, 0, 2000)
	if c.C.SerializingInsts != 1 {
		t.Fatalf("SI commits = %d", c.C.SerializingInsts)
	}
	if c.C.SIStallCycles == 0 {
		t.Fatal("SI fetch stall not recorded")
	}
}

func TestMispredictChargesRedirect(t *testing.T) {
	cfg, h, sp := testRig(t, 2)
	var insts []isa.Inst
	for i := 0; i < 40; i++ {
		insts = append(insts, isa.Inst{Class: isa.Branch, Taken: true, Misp: true})
	}
	c := New(0, cfg, h)
	c.SetSpace(sp)
	c.SetSource(script(insts...))
	run(c, 0, 3000)
	if c.C.Mispredicts < 30 {
		t.Fatalf("mispredicts = %d", c.C.Mispredicts)
	}
	if c.C.FetchStallCycles < 30*uint64(cfg.MispredictPenalty)/2 {
		t.Fatalf("redirect penalty not charged: fetch stalls = %d", c.C.FetchStallCycles)
	}
}

func TestTrapMarkersTrackPhase(t *testing.T) {
	cfg, h, sp := testRig(t, 2)
	insts := []isa.Inst{
		{Class: isa.ALU},
		{Class: isa.TrapEnter, Priv: true},
		{Class: isa.ALU, Priv: true},
		{Class: isa.TrapReturn, Priv: true},
		{Class: isa.ALU},
	}
	c := New(0, cfg, h)
	c.SetSpace(sp)
	c.SetSource(script(insts...))
	run(c, 0, 500)
	if c.C.TrapEntries != 1 || c.C.TrapReturns != 1 {
		t.Fatalf("traps = %d/%d", c.C.TrapEntries, c.C.TrapReturns)
	}
	if c.C.OSCommits != 2 { // TrapEnter counts at commit... Priv instructions
		t.Logf("OS commits = %d", c.C.OSCommits)
	}
	if c.InOS() {
		t.Fatal("phase should be user after TrapReturn")
	}
	if c.C.OSCycles == 0 || c.C.UserCycles == 0 {
		t.Fatal("phase cycles not accounted")
	}
}

func TestOnTrapEnterHoldsFetch(t *testing.T) {
	cfg, h, sp := testRig(t, 2)
	insts := []isa.Inst{
		{Class: isa.ALU},
		{Class: isa.TrapEnter, Priv: true},
		{Class: isa.ALU, Priv: true},
	}
	c := New(0, cfg, h)
	c.SetSpace(sp)
	c.SetSource(script(insts...))
	fired := 0
	c.OnTrapEnter = func(core *Core) bool {
		fired++
		return true
	}
	run(c, 0, 1500)
	if fired != 1 {
		t.Fatalf("hook fired %d times, want 1 (held afterwards)", fired)
	}
	if c.C.TrapEntries != 0 {
		t.Fatal("TrapEnter fetched despite hold")
	}
	if !c.Drained() {
		t.Fatal("window should drain during the hold")
	}
	// Resume with hook suppression: the trap proceeds.
	c.Resume(true)
	run(c, 1500, 1500)
	if c.C.TrapEntries != 1 {
		t.Fatal("TrapEnter did not commit after resume")
	}
	if fired != 1 {
		t.Fatal("hook re-fired for the suppressed trap")
	}
}

func TestOnTrapReturnFires(t *testing.T) {
	cfg, h, sp := testRig(t, 2)
	insts := []isa.Inst{
		{Class: isa.TrapEnter, Priv: true},
		{Class: isa.TrapReturn, Priv: true},
		{Class: isa.ALU},
	}
	c := New(0, cfg, h)
	c.SetSpace(sp)
	c.SetSource(script(insts...))
	fired := false
	c.OnTrapReturn = func(core *Core) bool {
		fired = true
		return true
	}
	run(c, 0, 500)
	if !fired {
		t.Fatal("OnTrapReturn never fired")
	}
	if c.C.Commits != 2 {
		t.Fatalf("commits = %d; fetch should hold after TrapReturn", c.C.Commits)
	}
}

func TestSetSourcePanicsWithWork(t *testing.T) {
	cfg, h, sp := testRig(t, 2)
	c := New(0, cfg, h)
	c.SetSpace(sp)
	var chain []isa.Inst
	for i := 0; i < 100; i++ {
		chain = append(chain, isa.Inst{Class: isa.Div, Dep: 1, PC: 0x1000})
	}
	c.SetSource(script(chain...))
	run(c, 0, 600)
	if c.Drained() {
		t.Skip("window drained; cannot exercise the panic")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("SetSource with in-flight work must panic")
		}
	}()
	c.SetSource(script())
}

// TestIdleCoreCountsIdle: an idle core charges idle cycles whether it is
// ticked every cycle or, as Chip.Run drives it, ticked once, skipped
// while it sleeps, and settled when read or given a source.
func TestIdleCoreCountsIdle(t *testing.T) {
	cfg, h, sp := testRig(t, 2)
	c := New(0, cfg, h)
	run(c, 0, 100)
	if c.C.IdleCycles != 100 {
		t.Fatalf("idle cycles = %d", c.C.IdleCycles)
	}

	c = New(0, cfg, h)
	c.Tick(0)
	if c.SkipUntil() == 0 {
		t.Fatal("an idle core must sleep after one Tick")
	}
	c.SettleTo(100)
	if c.C.Cycles != 100 || c.C.IdleCycles != 100 {
		t.Fatalf("settled idle span: cycles %d, idle %d, want 100 and 100", c.C.Cycles, c.C.IdleCycles)
	}
	c.WakeAt(100)
	c.SetSpace(sp)
	c.SetSource(script())
	run(c, 100, 20)
	if c.C.Cycles != 120 || c.C.IdleCycles != 100 || c.C.UserCycles != 20 {
		t.Fatalf("after a new source: cycles %d, idle %d, user %d, want 120, 100 and 20",
			c.C.Cycles, c.C.IdleCycles, c.C.UserCycles)
	}
}

func TestLSQLimitsFetch(t *testing.T) {
	cfg, h, sp := testRig(t, 2)
	cfg.StoreQueue = 4
	var insts []isa.Inst
	for i := 0; i < 64; i++ {
		insts = append(insts, isa.Inst{Class: isa.Store, VA: 0x2000_0000 + uint64(i)*8192})
	}
	c := New(0, cfg, h)
	c.SetSpace(sp)
	c.SetSource(script(insts...))
	run(c, 0, 50)
	if c.lsqStores > 4 {
		t.Fatalf("store queue exceeded: %d", c.lsqStores)
	}
}

func TestWindowOccupancyBounded(t *testing.T) {
	cfg, h, sp := testRig(t, 2)
	var insts []isa.Inst
	for i := 0; i < 3000; i++ {
		insts = append(insts, isa.Inst{Class: isa.Div, Dep: 1, PC: 0x1000 + uint64(i%16)*4})
	}
	c := New(0, cfg, h)
	c.SetSpace(sp)
	c.SetSource(script(insts...))
	for now := sim.Cycle(0); now < 30_000; now++ {
		c.Tick(now)
		if c.WindowOccupancy() > cfg.WindowSize {
			t.Fatal("window overflow")
		}
	}
	if c.C.WindowFullCycles == 0 {
		t.Fatal("window never filled behind dependent divides")
	}
}

// TestCheckFingerprintComparesLikeFullHash: for random instructions,
// flip masks on either side (zero included) and physical addresses,
// comparing the two sides' checkFingerprint values gives the same
// outcome as comparing full fingerprints of what each side executed.
func TestCheckFingerprintComparesLikeFullHash(t *testing.T) {
	full := func(in isa.Inst, flip, pa uint64) uint64 {
		in.Result ^= flip
		fp := in.Fingerprint()
		if in.Class == isa.Load || in.Class == isa.Store {
			fp ^= (pa + 0x9e3779b97f4a7c15) * 0xff51afd7ed558ccd
		}
		return fp
	}
	r := sim.NewRand(19)
	flip := func() uint64 {
		switch r.Intn(3) {
		case 0:
			return 0
		case 1:
			return 1 << r.Intn(64)
		default:
			return r.Next()
		}
	}
	mismatches := 0
	for i := 0; i < 200_000; i++ {
		in := isa.Inst{
			Seq:    r.Next(),
			PC:     r.Next(),
			Class:  isa.Class(r.Intn(int(isa.Nop) + 1)),
			VA:     r.Next(),
			Dep:    uint8(r.Intn(49)),
			Priv:   r.Bool(0.5),
			Taken:  r.Bool(0.5),
			Misp:   r.Bool(0.1),
			Result: r.Next(),
		}
		fa, fb := flip(), flip()
		if r.Bool(0.3) {
			fb = fa
		}
		pa, pb := r.Next(), r.Next()
		switch r.Intn(3) {
		case 0:
			pb = pa
		case 1:
			pb = pa ^ 1<<r.Intn(64)
		}
		want := full(in, fa, pa) != full(in, fb, pb)
		if got := checkFingerprint(&in, fa, pa) != checkFingerprint(&in, fb, pb); got != want {
			t.Fatalf("%+v, flips %#x/%#x, pa %#x/%#x: delta mismatch %v, full mismatch %v",
				in, fa, fb, pa, pb, got, want)
		}
		if want {
			mismatches++
		}
	}
	if mismatches == 0 || mismatches == 200_000 {
		t.Fatalf("%d of 200000 comparisons mismatched: the sample does not exercise both outcomes", mismatches)
	}
	clean := isa.Inst{Class: isa.ALU, Result: 7}
	if checkFingerprint(&clean, 0, 123) != 0 {
		t.Fatal("a fault-free non-memory execution sent a nonzero fingerprint")
	}
}
