package core

import (
	"testing"

	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/workload"
)

func testCfg() *sim.Config {
	cfg := sim.DefaultConfig()
	cfg.TimesliceCycles = 60_000
	return cfg
}

func buildSystem(t testing.TB, kind Kind, opts ...func(*Options)) *Chip {
	t.Helper()
	wl, err := workload.ByName("apache")
	if err != nil {
		t.Fatal(err)
	}
	o := Options{Cfg: testCfg(), Kind: kind, Workload: wl, Seed: 7}
	for _, f := range opts {
		f(&o)
	}
	chip, err := NewSystem(o)
	if err != nil {
		t.Fatal(err)
	}
	return chip
}

func TestKindStrings(t *testing.T) {
	for k := KindNoDMR2X; k <= KindSingleOS; k++ {
		if k.String() == "?" {
			t.Fatalf("kind %d unnamed", k)
		}
	}
}

func TestAllSystemsMakeProgress(t *testing.T) {
	for k := KindNoDMR2X; k <= KindSingleOS; k++ {
		chip := buildSystem(t, k)
		m := chip.Measure(30_000, 120_000)
		if m.TotalThroughput() == 0 {
			t.Errorf("%v: no user instructions committed", k)
		}
		if m.Mismatches != 0 {
			t.Errorf("%v: %d fingerprint mismatches in a fault-free run", k, m.Mismatches)
		}
	}
}

func TestNoDMR2XUsesAllCores(t *testing.T) {
	chip := buildSystem(t, KindNoDMR2X)
	chip.Run(50_000)
	for i, c := range chip.Cores {
		if c.Idle() {
			t.Fatalf("core %d idle in NoDMR2X", i)
		}
	}
}

func TestNoDMRIdlesHalf(t *testing.T) {
	chip := buildSystem(t, KindNoDMR)
	chip.Run(50_000)
	idle := 0
	for _, c := range chip.Cores {
		if c.Idle() {
			idle++
		}
	}
	if idle != chip.Cfg.Cores/2 {
		t.Fatalf("%d idle cores, want %d", idle, chip.Cfg.Cores/2)
	}
}

func TestReunionPairsAllCores(t *testing.T) {
	chip := buildSystem(t, KindReunion)
	chip.Run(50_000)
	for i, c := range chip.Cores {
		if c.Idle() {
			t.Fatalf("core %d idle under Reunion", i)
		}
		wantCoherent := i%2 == 0
		if c.Coherent() != wantCoherent {
			t.Fatalf("core %d coherence = %v", i, c.Coherent())
		}
	}
	// Mute commits never count toward guest work.
	chip.ResetMeasurement()
	chip.Run(50_000)
	m := chip.Collect(50_000)
	var vocalCommits uint64
	for i := 0; i < chip.Cfg.Cores; i += 2 {
		vocalCommits += chip.Cores[i].C.UserCommits
	}
	if m.GuestUser["app"] > vocalCommits {
		t.Fatal("mute commits leaked into guest throughput")
	}
}

func TestGangSwitchesGuests(t *testing.T) {
	chip := buildSystem(t, KindMMMIPC)
	m := chip.Measure(60_000, 360_000)
	if m.GuestUser["reliable"] == 0 || m.GuestUser["perf"] == 0 {
		t.Fatalf("a guest starved: %v", m.GuestUser)
	}
	if m.EnterN == 0 || m.LeaveN == 0 {
		t.Fatalf("no mode transitions at timeslice boundaries: enter=%d leave=%d", m.EnterN, m.LeaveN)
	}
}

func TestMMMTPRunsExtraVCPUs(t *testing.T) {
	chip := buildSystem(t, KindMMMTP)
	m := chip.Measure(60_000, 360_000)
	if n := m.GuestVCPUs["perf"]; n != chip.Cfg.Cores {
		t.Fatalf("MMM-TP performance bucket has %d VCPUs, want %d", n, chip.Cfg.Cores)
	}
	// The paper's key throughput claim, qualitatively: MMM-TP's
	// performance guest outproduces MMM-IPC's. This needs timeslices
	// long enough to amortize the Leave-DMR flush — the mute-side
	// VCPUs restart with an empty L2 every performance slice (the
	// paper gang-schedules 3M-cycle slices for the same reason).
	long := func(o *Options) {
		cfg := testCfg()
		cfg.TimesliceCycles = 250_000
		o.Cfg = cfg
	}
	tpChip := buildSystem(t, KindMMMTP, long)
	mt := tpChip.Measure(250_000, 1_000_000)
	ipcChip := buildSystem(t, KindMMMIPC, long)
	mi := ipcChip.Measure(250_000, 1_000_000)
	if mt.Throughput("perf") <= mi.Throughput("perf") {
		t.Fatalf("MMM-TP perf throughput %.0f <= MMM-IPC %.0f",
			mt.Throughput("perf"), mi.Throughput("perf"))
	}
}

func TestMMMTPFlushesOnLeave(t *testing.T) {
	chip := buildSystem(t, KindMMMTP)
	m := chip.Measure(60_000, 300_000)
	if m.Cache.FlushedLines == 0 {
		t.Fatal("MMM-TP never ran the Leave-DMR flush")
	}
	if m.LeaveN == 0 || m.LeaveAvg < float64(chip.Cfg.L2Lines()) {
		t.Fatalf("Leave-DMR cost %f should be dominated by the %d-line flush",
			m.LeaveAvg, chip.Cfg.L2Lines())
	}
	if m.EnterN == 0 || m.EnterAvg >= m.LeaveAvg {
		t.Fatalf("Enter (%f) should be much cheaper than Leave (%f)", m.EnterAvg, m.LeaveAvg)
	}
}

func TestSingleOSTransitionsPerTrap(t *testing.T) {
	chip := buildSystem(t, KindSingleOS)
	m := chip.Measure(50_000, 400_000)
	if m.EnterN == 0 || m.LeaveN == 0 {
		t.Fatalf("no per-trap transitions: enter=%d leave=%d", m.EnterN, m.LeaveN)
	}
	// During the run, OS work must execute in DMR: fingerprint checks
	// happened.
	if m.Checks == 0 {
		t.Fatal("OS phases did not run redundantly")
	}
	if m.TotalThroughput() == 0 {
		t.Fatal("no progress")
	}
}

func TestSingleOSNeverRunsPrivilegedUnprotected(t *testing.T) {
	chip := buildSystem(t, KindSingleOS)
	// Tick manually and assert the invariant the whole design exists
	// for: no OS instruction commits on an unpaired (performance-mode)
	// core.
	chip.Run(30_000)
	var osBefore [16]uint64
	for i, c := range chip.Cores {
		osBefore[i] = c.C.OSCommits
	}
	for i := 0; i < 50_000; i++ {
		chip.Tick()
		for pi := range chip.curPlan {
			if chip.curPlan[pi].dmr {
				continue
			}
			vc := chip.Cores[2*pi]
			if vc.C.OSCommits > osBefore[2*pi] && chip.trans[pi] == nil {
				t.Fatalf("cycle %d: pair %d committed OS work outside DMR", i, pi)
			}
		}
		for i, c := range chip.Cores {
			osBefore[i] = c.C.OSCommits
		}
	}
}

func TestPABProtectsAgainstTLBFaults(t *testing.T) {
	plan := &fault.Plan{MeanInterval: 5_000, Kinds: []fault.Kind{fault.TLBFlip}}
	chip := buildSystem(t, KindMMMIPC, func(o *Options) { o.FaultPlan = plan })
	m := chip.Measure(50_000, 400_000)
	if m.FaultsInjected == 0 {
		t.Skip("no faults landed on live TLB entries")
	}
	if m.PABExceptions == 0 {
		t.Fatalf("%d TLB faults injected but the PAB never fired", m.FaultsInjected)
	}
	if m.WouldCorrupt != 0 {
		t.Fatal("violations bypassed an enabled PAB")
	}
}

func TestDisabledPABAllowsCorruption(t *testing.T) {
	plan := &fault.Plan{MeanInterval: 5_000, Kinds: []fault.Kind{fault.TLBFlip}}
	chip := buildSystem(t, KindMMMIPC, func(o *Options) {
		o.FaultPlan = plan
		o.PABDisabled = true
	})
	m := chip.Measure(50_000, 400_000)
	if m.FaultsInjected == 0 {
		t.Skip("no faults landed")
	}
	if m.WouldCorrupt == 0 {
		t.Fatal("disabled PAB recorded no would-be corruption")
	}
	if m.PABExceptions != 0 {
		t.Fatal("disabled PAB raised exceptions")
	}
}

func TestPrivRegCorruptionCaughtOnEnter(t *testing.T) {
	plan := &fault.Plan{MeanInterval: 20_000, Kinds: []fault.Kind{fault.PrivRegFlip}}
	chip := buildSystem(t, KindSingleOS, func(o *Options) { o.FaultPlan = plan })
	m := chip.Measure(50_000, 500_000)
	if m.FaultsInjected == 0 {
		t.Skip("no privileged-register faults landed")
	}
	if m.VerifyFailures == 0 {
		t.Fatal("privileged corruption never caught by Enter-DMR verification")
	}
}

func TestResultFaultsDetectedInDMR(t *testing.T) {
	plan := &fault.Plan{MeanInterval: 30_000, Kinds: []fault.Kind{fault.ResultFlip}}
	chip := buildSystem(t, KindReunion, func(o *Options) { o.FaultPlan = plan })
	m := chip.Measure(50_000, 300_000)
	if m.FaultsInjected == 0 {
		t.Skip("no faults injected")
	}
	if m.Mismatches == 0 {
		t.Fatal("result corruption in DMR mode never detected")
	}
	if m.TotalThroughput() == 0 {
		t.Fatal("system did not survive recovery")
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() Metrics {
		chip := buildSystem(t, KindReunion)
		return chip.Measure(30_000, 100_000)
	}
	a, b := run(), run()
	if a.TotalThroughput() != b.TotalThroughput() || a.Checks != b.Checks {
		t.Fatalf("identical configurations diverged: %v vs %v commits",
			a.TotalThroughput(), b.TotalThroughput())
	}
}

func TestRemapPageKeepsPABCoherent(t *testing.T) {
	chip := buildSystem(t, KindMMMIPC)
	chip.Run(120_000) // let the perf guest run (second timeslice)
	// Pick a perf-guest VCPU and remap one of its private pages.
	var target = chip.Guests[1].VCPUs[0]
	va := uint64(0x0000_0200_0000_0000)
	if err := chip.RemapPage(target, va); err != nil {
		t.Fatal(err)
	}
	pa, ok := target.Space.Translate(va)
	if !ok {
		t.Fatal("page lost after remap")
	}
	// The new frame must be writable by the perf guest per the PAT.
	if chip.PAT.ReliableOnly(pa >> chip.PM.PageShift()) {
		t.Fatal("PAT not updated for the remapped page")
	}
	chip.Run(50_000)
}

func TestSerialPABWiring(t *testing.T) {
	// The IPC impact of the serial lookup is a statistical result
	// (exp.PABStudy / mmmbench -exp pab); here we verify the
	// mechanism is wired: the serial configuration reaches every
	// core's PAB and the checks actually happen in performance mode,
	// while the reliable guest stays within noise of the parallel
	// configuration.
	base := buildSystem(t, KindMMMIPC)
	mb := base.Measure(60_000, 300_000)
	serial := buildSystem(t, KindMMMIPC, func(o *Options) {
		cfg := testCfg()
		cfg.PABSerial = true
		o.Cfg = cfg
	})
	for i, p := range serial.PABs {
		if !p.Serial {
			t.Fatalf("PAB %d not serial", i)
		}
	}
	ms := serial.Measure(60_000, 300_000)
	if ms.PABChecks == 0 || mb.PABChecks == 0 {
		t.Fatal("PAB never consulted in performance mode")
	}
	relDelta := ms.UserIPC("reliable") / mb.UserIPC("reliable")
	if relDelta < 0.85 || relDelta > 1.15 {
		t.Fatalf("serial PAB perturbed the reliable guest: ratio %.3f", relDelta)
	}
}

func TestOptionsValidation(t *testing.T) {
	if _, err := NewSystem(Options{Kind: KindNoDMR}); err == nil {
		t.Fatal("missing workload accepted")
	}
	wl, _ := workload.ByName("apache")
	if _, err := NewSystem(Options{Kind: Kind(99), Workload: wl}); err == nil {
		t.Fatal("unknown kind accepted")
	}
	odd := sim.DefaultConfig()
	odd.Cores = 3
	if _, err := NewSystem(Options{Cfg: odd, Kind: KindNoDMR, Workload: wl}); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestMetricsHelpers(t *testing.T) {
	m := Metrics{
		Cycles:     1000,
		GuestUser:  map[string]uint64{"app": 500},
		GuestVCPUs: map[string]int{"app": 5},
	}
	if got := m.UserIPC("app"); got != 0.1 {
		t.Fatalf("UserIPC = %v", got)
	}
	if m.UserIPC("missing") != 0 {
		t.Fatal("missing bucket should be 0")
	}
	if m.TotalThroughput() != 500 {
		t.Fatal("total throughput wrong")
	}
}

func TestFaultFreePABRaisesNoExceptions(t *testing.T) {
	// Regression for the stale-PAT bug: the PAT must be synced to the
	// final memory layout, or legitimate performance-mode stores to
	// guest pages allocated after chip construction are denied.
	for _, k := range []Kind{KindMMMIPC, KindMMMTP, KindSingleOS} {
		chip := buildSystem(t, k)
		m := chip.Measure(30_000, 120_000)
		if m.PABChecks == 0 {
			t.Errorf("%v: PAB never consulted", k)
		}
		if m.PABExceptions != 0 {
			t.Errorf("%v: %d PAB exceptions in a fault-free run", k, m.PABExceptions)
		}
	}
}

func TestForcePABGuardsPerformanceSystem(t *testing.T) {
	plain := buildSystem(t, KindNoDMR2X)
	mp := plain.Measure(20_000, 60_000)
	if mp.PABChecks != 0 {
		t.Fatalf("NoDMR2X consulted the PAB without ForcePAB: %d", mp.PABChecks)
	}
	forced := buildSystem(t, KindNoDMR2X, func(o *Options) { o.ForcePAB = true })
	mf := forced.Measure(20_000, 60_000)
	if mf.PABChecks == 0 {
		t.Fatal("ForcePAB did not install the store guard")
	}
	if mf.PABExceptions != 0 {
		t.Fatalf("%d PAB exceptions in a fault-free forced-PAB run", mf.PABExceptions)
	}
}

func TestTLBFaultUnderDMRMachineChecks(t *testing.T) {
	// A corrupted translation under DMR diverges the address-bearing
	// fingerprints persistently: squash-and-retry cannot clear it, the
	// pair must escalate to a machine check, flush its TLBs and then
	// keep making progress.
	chip := buildSystem(t, KindReunion)
	chip.Run(30_000)
	chip.ResetMeasurement()
	start := chip.Now
	injected := false
	for core := 0; core < chip.Cfg.Cores && !injected; core++ {
		injected = chip.CorruptTLB(core, 7)
	}
	if !injected {
		t.Skip("no live TLB entry to corrupt")
	}
	chip.Run(150_000)
	m := chip.Collect(chip.Now - start)
	if m.MachineChecks == 0 {
		t.Fatal("persistent fingerprint divergence never escalated to a machine check")
	}
	if m.Mismatches == 0 {
		t.Fatal("corrupted translation never mismatched")
	}
	if m.TotalThroughput() == 0 {
		t.Fatal("system did not survive the machine check")
	}
}

func TestFaultObserverSeesEvents(t *testing.T) {
	plan := &fault.Plan{MeanInterval: 10_000, Kinds: []fault.Kind{fault.ResultFlip}}
	chip := buildSystem(t, KindReunion, func(o *Options) { o.FaultPlan = plan })
	var mismatches int
	chip.SetFaultObserver(func(ev FaultEvent) {
		if ev.Kind == EvMismatch {
			mismatches++
		}
	})
	chip.Run(200_000)
	if chip.Injector.Total() == 0 {
		t.Skip("no faults landed")
	}
	if mismatches == 0 {
		t.Fatal("observer saw no mismatch events")
	}
	// The observer must see exactly the mismatches the pairs record.
	if uint64(mismatches) != sumMismatches(chip) {
		t.Fatalf("observer saw %d mismatches, pairs recorded %d",
			mismatches, sumMismatches(chip))
	}
}

func sumMismatches(c *Chip) uint64 {
	var n uint64
	for _, p := range c.Pairs {
		n += p.Mismatches
	}
	return n
}
