package campaign

import (
	"fmt"
	"sort"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/mode"
	"repro/internal/workload"
)

// DefaultScale is the standard experiment scale: enough cycles for
// steady-state caches and several gang timeslices. internal/exp and
// cmd/mmmd both resolve their presets here, so a "default" campaign
// means the same jobs — and hits the same cache entries — everywhere.
func DefaultScale() Scale {
	return Scale{Warmup: 400_000, Measure: 900_000, Timeslice: 250_000}
}

// QuickScale is the reduced smoke-test scale.
func QuickScale() Scale {
	return Scale{Warmup: 150_000, Measure: 300_000, Timeslice: 60_000}
}

// DefaultSeeds is the standard seed axis: two independent runs per
// cell for confidence intervals.
func DefaultSeeds() []uint64 { return []uint64{11, 23} }

// QuickSeeds is the reduced seed axis for smoke runs.
func QuickSeeds() []uint64 { return []uint64{11} }

// builders maps campaign names to spec constructors. Every figure,
// table and design study of the paper's evaluation is a named campaign
// here, so cmd/mmmd can run any of them by name and internal/exp
// expands the same specs for its in-process tables.
var builders = map[string]func(workloads []string, seeds []uint64) Spec{
	"figure5": func(wls []string, seeds []uint64) Spec {
		return Spec{
			Name:      "figure5",
			Kinds:     []core.Kind{core.KindNoDMR2X, core.KindNoDMR, core.KindReunion},
			Workloads: wls,
			Seeds:     seeds,
		}
	},
	"figure6": func(wls []string, seeds []uint64) Spec {
		return Spec{
			Name:      "figure6",
			Kinds:     []core.Kind{core.KindDMRBase, core.KindMMMIPC, core.KindMMMTP},
			Workloads: wls,
			Seeds:     seeds,
		}
	},
	"table1": func(wls []string, seeds []uint64) Spec {
		return Spec{
			Name:      "table1",
			Kinds:     []core.Kind{core.KindMMMTP},
			Workloads: wls,
			Seeds:     seeds,
		}
	},
	"table2": func(wls []string, seeds []uint64) Spec {
		return Spec{
			Name:      "table2",
			Kinds:     []core.Kind{core.KindNoDMR},
			Workloads: wls,
			Seeds:     seeds,
		}
	},
	"pab": func(wls []string, seeds []uint64) Spec {
		return Spec{
			Name:      "pab",
			Kinds:     []core.Kind{core.KindMMMIPC},
			Workloads: wls,
			Seeds:     seeds,
			Variants: []Variant{
				{Name: "parallel"},
				{Name: "serial", Knobs: Knobs{PABSerial: true}},
			},
		}
	},
	"singleos": func(wls []string, seeds []uint64) Spec {
		return Spec{
			Name:      "singleos",
			Kinds:     []core.Kind{core.KindSingleOS},
			Workloads: wls,
			Seeds:     seeds,
		}
	},
	"tso": func(wls []string, seeds []uint64) Spec {
		return Spec{
			Name:      "tso",
			Kinds:     []core.Kind{core.KindNoDMR2X, core.KindReunion},
			Workloads: wls,
			Seeds:     seeds,
			Variants: []Variant{
				{Name: "sc"},
				{Name: "tso", Knobs: Knobs{TSO: true}},
			},
		}
	},
	"flush": func(wls []string, seeds []uint64) Spec {
		return Spec{
			Name:      "flush",
			Kinds:     []core.Kind{core.KindMMMTP},
			Workloads: wls,
			Seeds:     seeds,
			Variants: []Variant{
				{Name: "flush1", Knobs: Knobs{FlushPerCycle: 1}},
				{Name: "flush2", Knobs: Knobs{FlushPerCycle: 2}},
				{Name: "flush4", Knobs: Knobs{FlushPerCycle: 4}},
				{Name: "flush8", Knobs: Knobs{FlushPerCycle: 8}},
			},
		}
	},
	"faults": func(wls []string, seeds []uint64) Spec {
		// Per-kind knobs do not fit a cross-product; FaultJobs builds
		// the explicit cells.
		return Spec{Name: "faults", Jobs: FaultJobs(wls, seeds, 40_000)}
	},
	"relia": func(wls []string, seeds []uint64) Spec {
		// The Monte Carlo reliability evaluation: protection modes x
		// workloads x fault rates, each cell a batch of derived-seed
		// trials classified by internal/relia.
		return Spec{Name: "relia", Jobs: ReliaJobs(wls, seeds, nil, 0)}
	},
	"relia-adaptive": func(wls []string, seeds []uint64) Spec {
		// The sequential-stopping variant of "relia": the same cells,
		// but trials are scheduled in waves until each cell's 95%
		// Wilson interval on coverage is within ±5 points (a submit
		// may override the precision block). See Spec.Precision.
		return Spec{
			Name:      "relia-adaptive",
			Jobs:      ReliaJobs(wls, seeds, nil, 0),
			Precision: &Precision{HalfWidth: 0.05},
		}
	},
	"policy": func(wls []string, seeds []uint64) Spec {
		// The mode-policy design study: the consolidated mixed-mode
		// server swept over the dynamic coupling policies, fault-free
		// and under fault injection (the fault-escalation policy is
		// inert without protection events to react to). The fault-free
		// cells carry no variant label, so the static baseline is the
		// same cell — same fingerprint, same cache entry — as
		// figure6's MMM-IPC column.
		return Spec{
			Name:      "policy",
			Kinds:     []core.Kind{core.KindMMMIPC},
			Workloads: wls,
			Seeds:     seeds,
			Variants: []Variant{
				{},
				{Name: "faulty", Knobs: Knobs{FaultInterval: 40_000}},
			},
			Policies: append([]string{""}, mode.Dynamic()...),
		}
	},
}

// ReliaMode is one protection mode of the reliability sweep: the
// system kind that realizes it plus the knobs it needs.
type ReliaMode struct {
	Name     string
	Kind     core.Kind
	ForcePAB bool
	// Policy, when non-empty, runs the mode under a dynamic coupling
	// policy instead of the kind's static plans.
	Policy string
}

// ReliaModes lists the swept protection modes in canonical order:
// pure performance mode (every VCPU unprotected, stores PAB-guarded),
// full DMR, the consolidated mixed-mode server, the single-OS system
// whose per-trap Enter-DMR exercises the privileged-register
// verification, and two adaptive modes — fault-escalation on the
// mixed-mode server (pairs couple after a protection event and decay
// back) and duty-cycle scrubbing on the full-DMR roster (pairs spend
// only the duty fraction coupled, trading SDC exposure for
// performance). The adaptive coverage/SDC rows are the policy
// refactor's paper-payoff result.
func ReliaModes() []ReliaMode {
	return []ReliaMode{
		{Name: "performance", Kind: core.KindNoDMR2X, ForcePAB: true},
		{Name: "dmr", Kind: core.KindReunion},
		{Name: "mixed", Kind: core.KindMMMIPC},
		{Name: "singleos", Kind: core.KindSingleOS},
		{Name: "adaptive", Kind: core.KindMMMIPC, Policy: "fault-escalation"},
		{Name: "duty", Kind: core.KindReunion, Policy: "duty-cycle"},
	}
}

// DefaultFaultRates is the default raw-rate axis: mean cycles between
// injected faults. Two rates give the sweep a rate dimension without
// doubling every other axis.
func DefaultFaultRates() []float64 { return []float64{25_000, 50_000} }

// DefaultReliaTrials is the default Monte Carlo batch size per cell.
const DefaultReliaTrials = 6

// ReliaVariant names the sweep cell of one mode at one rate, e.g.
// "dmr-r25000". The variant carries both non-workload axes so cells
// never collide in the aggregation key; %g keeps distinct fractional
// rates distinct.
func ReliaVariant(mode string, rate float64) string {
	return fmt.Sprintf("%s-r%g", mode, rate)
}

// ReliaJobs builds the reliability campaign's explicit job list:
// modes x workloads x rates x seeds. Zero-value arguments select the
// defaults (all workloads, default seeds, DefaultFaultRates,
// DefaultReliaTrials).
func ReliaJobs(workloads []string, seeds []uint64, rates []float64, trials int) []Job {
	if len(workloads) == 0 {
		workloads = workload.Names()
	}
	if len(seeds) == 0 {
		seeds = DefaultSeeds()
	}
	if len(rates) == 0 {
		rates = DefaultFaultRates()
	}
	if trials <= 0 {
		trials = DefaultReliaTrials
	}
	var jobs []Job
	for _, wl := range workloads {
		for _, m := range ReliaModes() {
			for _, rate := range rates {
				for _, seed := range seeds {
					jobs = append(jobs, Job{
						Workload: wl,
						Kind:     m.Kind,
						Seed:     seed,
						Variant:  ReliaVariant(m.Name, rate),
						Knobs: Knobs{
							FaultInterval: rate,
							ReliaTrials:   trials,
							ForcePAB:      m.ForcePAB,
							Policy:        m.Policy,
						},
					})
				}
			}
		}
	}
	return jobs
}

// FaultJobs builds the protection-validation campaign's explicit job
// list: faults at the given mean interval injected into Reunion (all
// DMR), MMM-IPC with the PAB enabled, and MMM-IPC with the PAB
// disabled.
func FaultJobs(workloads []string, seeds []uint64, meanInterval float64) []Job {
	if len(workloads) == 0 {
		workloads = []string{"apache"}
	}
	if len(seeds) == 0 {
		seeds = DefaultSeeds()
	}
	var jobs []Job
	for _, wl := range workloads {
		for _, seed := range seeds {
			jobs = append(jobs,
				Job{Workload: wl, Kind: core.KindReunion, Seed: seed, Variant: "dmr",
					Knobs: Knobs{FaultInterval: meanInterval}},
				Job{Workload: wl, Kind: core.KindMMMIPC, Seed: seed, Variant: "pab",
					Knobs: Knobs{FaultInterval: meanInterval}},
				Job{Workload: wl, Kind: core.KindMMMIPC, Seed: seed, Variant: "nopab",
					Knobs: Knobs{FaultInterval: meanInterval, PABDisabled: true}},
			)
		}
	}
	return jobs
}

// Named resolves a registered campaign name into its spec. Empty
// workloads or seeds select the defaults (all six workloads, seeds
// {11, 23}). Axes that would build more than MaxJobs jobs are refused
// before any job list is allocated.
func Named(name string, workloads []string, seeds []uint64) (Spec, error) {
	b, ok := builders[name]
	if !ok {
		return Spec{}, fmt.Errorf("campaign: unknown campaign %q (have %v)", name, Names())
	}
	// The explicit-job builders (relia, faults) allocate their whole
	// job list right here, before Expand could refuse it, so size it
	// first from the jobs of one (workload, seed) pair.
	perPair := max(len(b(workload.Names()[:1], []uint64{0}).Jobs), 1)
	if err := checkJobs(name, perPair, max(len(workloads), 1), max(len(seeds), 1)); err != nil {
		return Spec{}, err
	}
	return b(workloads, seeds), nil
}

// Names lists the registered campaign names, sorted.
func Names() []string {
	out := make([]string, 0, len(builders))
	for n := range builders {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Catalog expands every registered campaign under its default axes and
// summarizes the distinct values of each dimension, in sorted order,
// so operators can discover what a campaign runs without reading
// source (served by mmmd's catalog endpoint).
func Catalog() []api.Axes {
	var out []api.Axes
	for _, name := range Names() {
		spec := builders[name](nil, nil)
		jobs, err := spec.Expand()
		if err != nil {
			// A registered campaign that cannot expand under defaults is
			// a programming error; surface it as an empty entry rather
			// than hiding the name.
			out = append(out, api.Axes{Name: name})
			continue
		}
		ax := api.Axes{Name: name, Jobs: len(jobs)}
		if spec.Precision != nil {
			p := spec.Precision.Normalized()
			ax.Precision = &p
		}
		kinds := map[string]bool{}
		wls := map[string]bool{}
		variants := map[string]bool{}
		policies := map[string]bool{}
		seeds := map[uint64]bool{}
		for _, j := range jobs {
			kinds[j.Kind.String()] = true
			wls[j.Workload] = true
			if j.Variant != "" {
				variants[j.Variant] = true
			}
			pol := j.Knobs.Policy
			if pol == "" {
				pol = "static"
			}
			policies[pol] = true
			seeds[j.Seed] = true
			if j.Knobs.ReliaTrials > 0 {
				ax.Reliability = true
			}
		}
		for k := range kinds {
			ax.Kinds = append(ax.Kinds, k)
		}
		for w := range wls {
			ax.Workloads = append(ax.Workloads, w)
		}
		for v := range variants {
			ax.Variants = append(ax.Variants, v)
		}
		if len(policies) > 1 || !policies["static"] {
			for p := range policies {
				ax.Policies = append(ax.Policies, p)
			}
		}
		for s := range seeds {
			ax.Seeds = append(ax.Seeds, s)
		}
		sort.Strings(ax.Kinds)
		sort.Strings(ax.Workloads)
		sort.Strings(ax.Variants)
		sort.Strings(ax.Policies)
		sort.Slice(ax.Seeds, func(i, j int) bool { return ax.Seeds[i] < ax.Seeds[j] })
		out = append(out, ax)
	}
	return out
}
