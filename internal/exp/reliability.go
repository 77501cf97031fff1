package exp

import (
	"fmt"
	"sort"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/relia"
	"repro/internal/stats"
)

// ReliaRow summarizes the reliability campaign for one protection mode
// at one raw fault rate, merged across workloads and seeds.
type ReliaRow struct {
	Mode string
	// Rate is the injected mean fault interval in cycles.
	Rate float64
	// Faults is the number of successfully injected faults classified.
	Faults uint64
	// Trials is the number of Monte Carlo trial slices behind the row —
	// fixed-batch runs schedule the same count for every cell, adaptive
	// runs stop each cell as soon as its interval meets the target.
	Trials int
	// ResultCov / TLBCov are the per-kind coverage proportions with
	// their 95% Wilson bounds.
	ResultCov, ResultLo, ResultHi float64
	TLBCov, TLBLo, TLBHi          float64
	// Prevented / VerifyCaught / SDC / DUE / Masked are outcome counts
	// across kinds.
	Prevented, VerifyCaught, SDC, DUE, Masked uint64
	// LatP95 is the 95th-percentile detection latency in cycles over
	// all detected faults.
	LatP95 float64
	// FITSDC and MTTFHours roll the outcome probabilities up under the
	// default raw-rate model.
	FITSDC    float64
	MTTFHours float64
}

// ReliabilityStudy runs the registered "relia" campaign — the paper's
// protection story quantified: DMR-mode result flips are detected and
// corrected with coverage statistically indistinguishable from 100%,
// performance-mode TLB flips are prevented by the PAB, and
// performance-mode result flips surface as SDC — and merges each
// (mode, rate) cell across workloads and seeds.
func ReliabilityStudy(c Config) ([]ReliaRow, error) {
	spec, err := campaign.Named("relia", c.workloads(), c.Seeds)
	if err != nil {
		return nil, err
	}
	if c.Precision != nil {
		p := *c.Precision
		spec.Precision = &p
	} else if c.ReliaTrials > 0 {
		for i := range spec.Jobs {
			spec.Jobs[i].Knobs.ReliaTrials = c.ReliaTrials
		}
	}
	res, err := c.run(spec)
	if err != nil {
		return nil, err
	}
	rates := campaign.DefaultFaultRates()
	var rows []ReliaRow
	for _, rm := range campaign.ReliaModes() {
		for _, rate := range rates {
			variant := campaign.ReliaVariant(rm.Name, rate)
			// Adaptive modes run under a dynamic policy, which is its
			// own key segment; build the key through Job so it matches.
			k := campaign.Job{
				Workload: "", Kind: rm.Kind, Variant: variant,
				Knobs: campaign.Knobs{Policy: rm.Policy},
			}
			var batches []*core.ReliaBatch
			for _, wl := range c.workloads() {
				k.Workload = wl
				for _, m := range res[k.Key()] {
					batches = append(batches, m.Relia)
				}
			}
			merged := relia.MergeBatches(batches)
			if merged == nil {
				continue
			}
			row := ReliaRow{Mode: rm.Name, Rate: rate,
				Faults: relia.TotalInjected(merged), Trials: merged.Trials}
			cov, exposed := relia.Coverage(merged, "result-flip")
			row.ResultCov = stats.Ratio(float64(cov), float64(exposed))
			row.ResultLo, row.ResultHi = stats.Wilson(cov, exposed)
			cov, exposed = relia.Coverage(merged, "tlb-flip")
			row.TLBCov = stats.Ratio(float64(cov), float64(exposed))
			row.TLBLo, row.TLBHi = stats.Wilson(cov, exposed)
			for kind := range merged.Injected {
				row.Prevented += merged.Outcomes[kind+"/"+relia.OutcomePrevented.String()]
				row.VerifyCaught += merged.Outcomes[kind+"/"+relia.OutcomeVerifyCaught.String()]
				row.SDC += merged.Outcomes[kind+"/"+relia.OutcomeSDC.String()]
				row.DUE += merged.Outcomes[kind+"/"+relia.OutcomeDUE.String()]
				row.Masked += merged.Outcomes[kind+"/"+relia.OutcomeMasked.String()]
			}
			var lat []float64
			for _, k := range fault.AllKinds() {
				lat = append(lat, merged.DetectLat[k.String()]...)
			}
			if len(lat) > 0 {
				sort.Float64s(lat)
				row.LatP95 = stats.PercentileSorted(lat, 95)
			}
			row.FITSDC, _ = relia.FIT(merged, relia.DefaultRates())
			row.MTTFHours = relia.MTTFHours(row.FITSDC)
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// ReliabilityTable renders the reliability study.
func ReliabilityTable(rows []ReliaRow) *stats.Table {
	t := &stats.Table{
		Title: "Reliability: Monte Carlo fault-campaign outcomes by protection mode",
		Columns: []string{
			"mode", "rate(cyc)", "trials", "faults",
			"result cov [95% CI]", "tlb cov [95% CI]",
			"prevented", "verify", "SDC", "DUE", "masked",
			"p95 lat", "FIT(SDC)", "MTTF(h)",
		},
	}
	for _, r := range rows {
		mttf := "-"
		if r.MTTFHours > 0 {
			mttf = fmt.Sprintf("%.2g", r.MTTFHours)
		} else if r.SDC == 0 {
			mttf = "no SDC observed"
		}
		t.AddRow(r.Mode,
			fmt.Sprintf("%.0f", r.Rate),
			fmt.Sprintf("%d", r.Trials),
			fmt.Sprintf("%d", r.Faults),
			fmt.Sprintf("%.3f [%.3f,%.3f]", r.ResultCov, r.ResultLo, r.ResultHi),
			fmt.Sprintf("%.3f [%.3f,%.3f]", r.TLBCov, r.TLBLo, r.TLBHi),
			fmt.Sprintf("%d", r.Prevented),
			fmt.Sprintf("%d", r.VerifyCaught),
			fmt.Sprintf("%d", r.SDC),
			fmt.Sprintf("%d", r.DUE),
			fmt.Sprintf("%d", r.Masked),
			fmt.Sprintf("%.0f", r.LatP95),
			fmt.Sprintf("%.1f", r.FITSDC),
			mttf)
	}
	return t
}
