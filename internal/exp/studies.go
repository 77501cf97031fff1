package exp

import (
	"fmt"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/stats"
)

// PABRow holds the serial-vs-parallel PAB lookup study for one
// workload (Section 5.2, "Effect of PAB Latency").
type PABRow struct {
	Workload string
	// PerfIPCRatio is the performance VM's per-thread IPC with a
	// 2-cycle serial PAB lookup, normalized to the parallel lookup.
	PerfIPCRatio *stats.Sample
	// RelIPCRatio is the reliable VM's ratio (the PAB is not used in
	// reliable mode, so this should be ~1.0).
	RelIPCRatio *stats.Sample
}

// PABStudy reproduces the Section 5.2 design study: a serial 2-cycle
// PAB lookup before the L2 access reduces the performance-mode
// application's IPC by 3–10%; the reliable application is unaffected.
func PABStudy(c Config) ([]PABRow, error) {
	res, err := c.named("pab")
	if err != nil {
		return nil, err
	}
	var rows []PABRow
	for _, wl := range c.workloads() {
		par := res[key(wl, core.KindMMMIPC, "parallel")]
		ser := res[key(wl, core.KindMMMIPC, "serial")]
		basePerf := sampleOf(par, func(m *core.Metrics) float64 { return m.UserIPC("perf") }).Mean()
		baseRel := sampleOf(par, func(m *core.Metrics) float64 { return m.UserIPC("reliable") }).Mean()
		rows = append(rows, PABRow{
			Workload:     wl,
			PerfIPCRatio: sampleOf(ser, func(m *core.Metrics) float64 { return stats.Ratio(m.UserIPC("perf"), basePerf) }),
			RelIPCRatio:  sampleOf(ser, func(m *core.Metrics) float64 { return stats.Ratio(m.UserIPC("reliable"), baseRel) }),
		})
	}
	return rows, nil
}

// PABTable renders the PAB latency study.
func PABTable(rows []PABRow) *stats.Table {
	t := &stats.Table{
		Title:   "Section 5.2: Serial (2-cycle) vs parallel PAB lookup (MMM-IPC)",
		Columns: []string{"workload", "perf IPC (serial/parallel)", "reliable IPC ratio", "paper: perf -3-10%, reliable 1.0"},
	}
	for _, r := range rows {
		t.AddRow(r.Workload, fmtRatio(r.PerfIPCRatio), fmtRatio(r.RelIPCRatio), "")
	}
	return t
}

// SingleOSRow holds the single-OS mode-switching overhead for one
// workload (Section 5.3).
type SingleOSRow struct {
	Workload string
	// Overhead is the fraction of cycles spent in mode transitions
	// when every OS entry/exit switches modes.
	Overhead *stats.Sample
	// Switches is the number of Enter-DMR transitions per million
	// cycles.
	Switches *stats.Sample
	// Estimate is the paper's analytic estimate: switch cost divided
	// by (user+OS cycles between switches).
	Estimate *stats.Sample
}

// SingleOSOverhead reproduces the Section 5.3 analysis: with mode
// transitions at every OS boundary, the overhead is ≈8% for Apache and
// <5% for the other workloads.
func SingleOSOverhead(c Config) ([]SingleOSRow, error) {
	res, err := c.named("singleos")
	if err != nil {
		return nil, err
	}
	var rows []SingleOSRow
	for _, wl := range c.workloads() {
		ms := res[key(wl, core.KindSingleOS, "")]
		overhead := func(m *core.Metrics) float64 {
			trans := float64(m.EnterN)*m.EnterAvg + float64(m.LeaveN)*m.LeaveAvg
			active := float64(m.Core.Cycles - m.Core.IdleCycles)
			if active == 0 {
				return 0
			}
			return trans / active
		}
		estimate := func(m *core.Metrics) float64 {
			per := m.EnterAvg + m.LeaveAvg
			interval := m.UserCycPerSwitch + m.OSCycPerSwitch
			if interval == 0 {
				return 0
			}
			return per / (interval + per)
		}
		rows = append(rows, SingleOSRow{
			Workload: wl,
			Overhead: sampleOf(ms, overhead),
			Switches: sampleOf(ms, func(m *core.Metrics) float64 {
				return float64(m.EnterN) / float64(m.Cycles) * 1e6
			}),
			Estimate: sampleOf(ms, estimate),
		})
	}
	return rows, nil
}

// SingleOSTable renders the single-OS overhead analysis.
func SingleOSTable(rows []SingleOSRow) *stats.Table {
	t := &stats.Table{
		Title:   "Section 5.3: Single-OS mode-switching overhead",
		Columns: []string{"workload", "measured overhead", "switches/Mcyc", "analytic estimate", "paper: ~8% apache, <5% others"},
	}
	for _, r := range rows {
		t.AddRow(r.Workload,
			fmt.Sprintf("%.1f%%", 100*r.Overhead.Mean()),
			fmt.Sprintf("%.1f", r.Switches.Mean()),
			fmt.Sprintf("%.1f%%", 100*r.Estimate.Mean()), "")
	}
	return t
}

// FaultRow summarizes a fault-injection campaign on one system kind.
type FaultRow struct {
	System       string
	Injected     *stats.Sample
	FPDetected   *stats.Sample // fingerprint mismatches (DMR detection)
	PABPrevented *stats.Sample // PAB exceptions (stores stopped)
	WouldCorrupt *stats.Sample // violations with enforcement off
	VerifyCaught *stats.Sample // privileged-state divergence caught on Enter-DMR
}

// faultVariants maps the fault campaign's variant labels to the names
// the paper-facing table reports, in row order.
var faultVariants = []struct {
	kind    core.Kind
	variant string
	name    string
}{
	{core.KindReunion, "dmr", "Reunion (DMR)"},
	{core.KindMMMIPC, "pab", "MMM-IPC +PAB"},
	{core.KindMMMIPC, "nopab", "MMM-IPC -PAB"},
}

// FaultStudy runs the protection-validation campaign the paper's
// design arguments imply: faults injected into a mixed-mode system are
// either detected by fingerprints (DMR mode), stopped by the PAB
// before corrupting reliable memory (performance mode), or caught by
// the privileged-register verification on Enter-DMR. Disabling the
// PAB converts prevented violations into silent corruption.
func FaultStudy(c Config, wl string, meanInterval float64) ([]FaultRow, error) {
	spec := campaign.Spec{Name: "faults", Jobs: campaign.FaultJobs([]string{wl}, c.Seeds, meanInterval)}
	res, err := c.run(spec)
	if err != nil {
		return nil, err
	}
	var rows []FaultRow
	for _, v := range faultVariants {
		ms := res[key(wl, v.kind, v.variant)]
		rows = append(rows, FaultRow{
			System:       v.name,
			Injected:     sampleOf(ms, func(m *core.Metrics) float64 { return float64(m.FaultsInjected) }),
			FPDetected:   sampleOf(ms, func(m *core.Metrics) float64 { return float64(m.Mismatches) }),
			PABPrevented: sampleOf(ms, func(m *core.Metrics) float64 { return float64(m.PABExceptions) }),
			WouldCorrupt: sampleOf(ms, func(m *core.Metrics) float64 { return float64(m.WouldCorrupt) }),
			VerifyCaught: sampleOf(ms, func(m *core.Metrics) float64 { return float64(m.VerifyFailures) }),
		})
	}
	return rows, nil
}

// FaultTable renders the fault-injection campaign.
func FaultTable(rows []FaultRow) *stats.Table {
	t := &stats.Table{
		Title:   "Fault injection: detection and prevention by system",
		Columns: []string{"system", "injected", "FP detections", "PAB prevented", "silent corruptions", "verify caught"},
	}
	for _, r := range rows {
		t.AddRow(r.System,
			fmt.Sprintf("%.0f", r.Injected.Mean()),
			fmt.Sprintf("%.0f", r.FPDetected.Mean()),
			fmt.Sprintf("%.0f", r.PABPrevented.Mean()),
			fmt.Sprintf("%.0f", r.WouldCorrupt.Mean()),
			fmt.Sprintf("%.0f", r.VerifyCaught.Mean()))
	}
	return t
}
