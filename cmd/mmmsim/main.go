// Command mmmsim runs one simulated system configuration and prints
// its metrics:
//
//	mmmsim -system mmm-tp -workload oltp
//	mmmsim -system reunion -workload apache -measure 2000000
//	mmmsim -system single-os -workload zeus -v
//
// Systems: no-dmr-2x, no-dmr, reunion, dmr-base, mmm-ipc, mmm-tp,
// single-os.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/mode"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/workload"
)

func main() {
	var (
		system     = flag.String("system", "mmm-tp", "system configuration (no-dmr-2x, no-dmr, reunion, dmr-base, mmm-ipc, mmm-tp, single-os)")
		policy     = flag.String("policy", "", "runtime mode policy (static, utilization, duty-cycle[:period[:duty%]], fault-escalation[:decay]); empty = static")
		wlName     = flag.String("workload", "apache", "workload model (apache, oltp, pgoltp, pmake, pgbench, zeus)")
		seed       = flag.Uint64("seed", 11, "random seed")
		warmup     = flag.Uint64("warmup", 800_000, "warmup cycles")
		measure    = flag.Uint64("measure", 1_500_000, "measurement cycles")
		timeslice  = flag.Uint64("timeslice", 250_000, "gang-scheduling timeslice cycles")
		serialPAB  = flag.Bool("serial-pab", false, "serial 2-cycle PAB lookup instead of parallel")
		noPAB      = flag.Bool("no-pab", false, "disable PAB enforcement (count violations only)")
		faults     = flag.Float64("fault-interval", 0, "mean cycles between injected faults (0 = none)")
		verbose    = flag.Bool("v", false, "print detailed counters")
		traceOut   = flag.String("trace", "", "write a flight-recorder trace as Chrome trace-event JSON (perfetto-loadable) to this file")
		traceJSONL = flag.String("trace-jsonl", "", "write the flight-recorder trace as JSON Lines to this file")
		traceCap   = flag.Int("trace-cap", 0, "flight-recorder ring capacity in events (0 = default 65536; oldest events drop first)")
	)
	flag.Parse()

	kind, err := core.ParseKind(*system)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mmmsim:", err)
		os.Exit(2)
	}
	if _, err := mode.Parse(*policy); err != nil {
		fmt.Fprintln(os.Stderr, "mmmsim:", err)
		os.Exit(2)
	}
	wl, err := workload.ByName(strings.ToLower(*wlName))
	if err != nil {
		fmt.Fprintln(os.Stderr, "mmmsim:", err)
		os.Exit(2)
	}
	cfg := sim.DefaultConfig()
	cfg.TimesliceCycles = sim.Cycle(*timeslice)
	cfg.PABSerial = *serialPAB
	opts := core.Options{
		Cfg:         cfg,
		Kind:        kind,
		Policy:      *policy,
		Workload:    wl,
		Seed:        *seed,
		PABDisabled: *noPAB,
	}
	if *faults > 0 {
		opts.FaultPlan = &fault.Plan{MeanInterval: *faults}
	}
	var rec *obs.Recorder
	if *traceOut != "" || *traceJSONL != "" {
		rec = obs.NewRecorder(*traceCap)
		opts.Recorder = rec
	}
	m, err := core.RunSystem(opts, sim.Cycle(*warmup), sim.Cycle(*measure))
	if err != nil {
		fmt.Fprintln(os.Stderr, "mmmsim:", err)
		os.Exit(1)
	}
	if rec != nil {
		label := fmt.Sprintf("%s/%s/%s", kind, *policy, wl.Name)
		if err := rec.WriteFiles(*traceOut, *traceJSONL, label); err != nil {
			fmt.Fprintln(os.Stderr, "mmmsim:", err)
			os.Exit(1)
		}
		fmt.Printf("trace: %d events recorded (%d dropped from the ring)\n", rec.Total(), rec.Dropped())
	}

	polName := *policy
	if polName == "" {
		polName = "static"
	}
	fmt.Printf("system=%s policy=%s workload=%s seed=%d cycles=%d\n", kind, polName, wl.Name, *seed, m.Cycles)
	for _, b := range []string{"app", "apps", "reliable", "perf"} {
		if n := m.GuestVCPUs[b]; n > 0 {
			fmt.Printf("  %-9s vcpus=%-3d user-commits=%-12d per-thread user IPC=%.4f\n",
				b, n, m.GuestUser[b], m.UserIPC(b))
		}
	}
	fmt.Printf("  total user throughput: %.0f instructions (%.4f IPC chip-wide)\n",
		m.TotalThroughput(), m.TotalThroughput()/float64(m.Cycles))
	if m.EnterN+m.LeaveN > 0 {
		fmt.Printf("  mode switches: enter=%d (avg %.0f cyc) leave=%d (avg %.0f cyc)\n",
			m.EnterN, m.EnterAvg, m.LeaveN, m.LeaveAvg)
	}
	if m.Checks > 0 {
		fmt.Printf("  reunion: %d fingerprint checks, %d mismatches\n", m.Checks, m.Mismatches)
	}
	if m.PABChecks > 0 {
		fmt.Printf("  pab: %d checks, %d misses, %d exceptions, %d would-corrupt\n",
			m.PABChecks, m.PABMisses, m.PABExceptions, m.WouldCorrupt)
	}
	if m.FaultsInjected > 0 {
		fmt.Printf("  faults: %d injected, %d verify-caught\n", m.FaultsInjected, m.VerifyFailures)
	}
	if *verbose {
		c := m.Core
		fmt.Printf("  pipeline: commits=%d user=%d os=%d loads=%d stores=%d branches=%d mispredicts=%d SIs=%d\n",
			c.Commits, c.UserCommits, c.OSCommits, c.Loads, c.Stores, c.Branches, c.Mispredicts, c.SerializingInsts)
		fmt.Printf("  stalls (core-cycles): window-full=%d si=%d check-wait=%d store-commit=%d fetch=%d idle=%d\n",
			c.WindowFullCycles, c.SIStallCycles, c.CheckWaitCycles, c.StoreCommitStall, c.FetchStallCycles, c.IdleCycles)
		h := m.Cache
		fmt.Printf("  caches: L1 %d/%d L2 %d/%d L3hit=%d C2C=%d mem=%d writebacks=%d invalidations=%d\n",
			h.L1Hits, h.L1Misses, h.L2Hits, h.L2Misses, h.L3Hits, h.C2CTransfers, h.MemAccesses, h.Writebacks, h.Invalidations)
		fmt.Printf("  flush: %d lines inspected, %d written back\n", h.FlushedLines, h.FlushWritebacks)
		fmt.Printf("  table2: user-cycles/switch=%.0f os-cycles/switch=%.0f\n", m.UserCycPerSwitch, m.OSCycPerSwitch)
	}
}
