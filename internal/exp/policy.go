package exp

import (
	"fmt"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/mode"
	"repro/internal/stats"
)

// PolicyRow summarizes the mode-policy design study for one (policy,
// fault condition) cell of the "policy" campaign, merged across
// workloads: the consolidated mixed-mode server (MMM-IPC roster)
// under a dynamic coupling policy, normalized to the static default.
type PolicyRow struct {
	Policy  string
	Variant string // "clean" (fault-free) or "faulty" (injection on)
	// PerfIPC / RelIPC are the performance and reliable guests'
	// per-thread user IPC, normalized per workload to the static
	// policy under the same fault condition.
	PerfIPC *stats.Sample
	RelIPC  *stats.Sample
	// Switches is the number of mode transitions (enter + leave) per
	// million cycles — the cost side of a dynamic policy.
	Switches *stats.Sample
	// Mismatches / MachineChecks count the protection activity the
	// policy's coupling choices exposed (faulty cells only; clean runs
	// report zero).
	Mismatches    *stats.Sample
	MachineChecks *stats.Sample
}

// policyAxis returns the swept policies: the configured subset, or
// static plus every registered dynamic policy.
func (c Config) policyAxis() []string {
	if len(c.Policies) > 0 {
		return c.Policies
	}
	return append([]string{""}, mode.Dynamic()...)
}

// PolicyStudy runs the registered "policy" campaign and reports each
// dynamic policy against the static baseline: what per-thread
// performance the guests gain or lose when coupling becomes a runtime
// decision, how many transitions the policy pays for it, and — under
// fault injection — how much protection activity its coupling windows
// still catch. Cells are normalized per workload, then merged.
func PolicyStudy(c Config) ([]PolicyRow, error) {
	// Canonicalize the axis up front: result keys carry the canonical
	// policy names the campaign layer normalizes to ("static" folds
	// into the "" default cell).
	axis := make([]string, 0, len(c.policyAxis()))
	for _, pol := range c.policyAxis() {
		if pol != "" {
			canon, err := mode.Parse(pol)
			if err != nil {
				return nil, err
			}
			pol = canon
			if pol == "static" {
				pol = ""
			}
		}
		axis = append(axis, pol)
	}
	// The static baseline is always swept: every row normalizes to it.
	hasBase := false
	for _, pol := range axis {
		hasBase = hasBase || pol == ""
	}
	if !hasBase {
		axis = append([]string{""}, axis...)
	}
	c.Policies = axis
	spec, err := campaign.Named("policy", c.workloads(), c.Seeds)
	if err != nil {
		return nil, err
	}
	spec.Policies = axis
	res, err := c.run(spec)
	if err != nil {
		return nil, err
	}
	polKey := func(wl, variant, pol string) string {
		return campaign.Job{
			Workload: wl, Kind: core.KindMMMIPC, Variant: variant,
			Knobs: campaign.Knobs{Policy: pol},
		}.Key()
	}
	// The fault-free cells carry no variant label (they are figure6's
	// cells); the report labels them "clean".
	variantLabel := map[string]string{"": "clean", "faulty": "faulty"}
	var rows []PolicyRow
	for _, pol := range c.policyAxis() {
		if pol == "" || pol == "static" {
			continue // the baseline every other row is normalized to
		}
		for _, variant := range []string{"", "faulty"} {
			row := PolicyRow{
				Policy: pol, Variant: variantLabel[variant],
				PerfIPC: &stats.Sample{}, RelIPC: &stats.Sample{},
				Switches: &stats.Sample{}, Mismatches: &stats.Sample{}, MachineChecks: &stats.Sample{},
			}
			for _, wl := range c.workloads() {
				base := res[polKey(wl, variant, "")]
				ms := res[polKey(wl, variant, pol)]
				basePerf := sampleOf(base, func(m *core.Metrics) float64 { return m.UserIPC("perf") }).Mean()
				baseRel := sampleOf(base, func(m *core.Metrics) float64 { return m.UserIPC("reliable") }).Mean()
				for i := range ms {
					m := &ms[i]
					row.PerfIPC.Add(stats.Ratio(m.UserIPC("perf"), basePerf))
					row.RelIPC.Add(stats.Ratio(m.UserIPC("reliable"), baseRel))
					row.Switches.Add(float64(m.EnterN+m.LeaveN) / float64(m.Cycles) * 1e6)
					row.Mismatches.Add(float64(m.Mismatches))
					row.MachineChecks.Add(float64(m.MachineChecks))
				}
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// PolicyTable renders the mode-policy study.
func PolicyTable(rows []PolicyRow) *stats.Table {
	t := &stats.Table{
		Title: "Mode policies: dynamic DMR coupling on the consolidated server (MMM-IPC), vs static",
		Columns: []string{
			"policy", "faults", "perf IPC (vs static)", "rel IPC (vs static)",
			"switches/Mcyc", "FP detections", "machine checks",
		},
	}
	for _, r := range rows {
		t.AddRow(r.Policy, r.Variant,
			fmtRatio(r.PerfIPC), fmtRatio(r.RelIPC),
			fmt.Sprintf("%.1f", r.Switches.Mean()),
			fmt.Sprintf("%.0f", r.Mismatches.Mean()),
			fmt.Sprintf("%.0f", r.MachineChecks.Mean()))
	}
	return t
}
