// Package campaign turns declarative sweep specifications into
// deterministic job sets and executes them on a bounded,
// context-cancellable worker pool with a content-addressed result
// cache. It is the execution engine behind internal/exp (every figure,
// table and design study of the paper is a named campaign) and behind
// the cmd/mmmd sweep service: overlapping or re-submitted campaigns
// resume from cached results instead of re-simulating.
package campaign

import (
	"fmt"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/mode"
	"repro/internal/workload"
)

// The job-identity vocabulary — Scale, Knobs, Job and the fingerprint
// derivation, plus the adaptive Precision block — lives in
// internal/api (it crosses the wire: the lease protocol and the mmmd
// bodies carry it verbatim). The aliases keep campaign the natural
// import for execution-side callers; api.SpecVersion is the cache
// generation and bumps under the same discipline as before the move.
type (
	Scale     = api.Scale
	Knobs     = api.Knobs
	Job       = api.Job
	Precision = api.Precision
)

// Variant names one point of a non-axis sweep dimension (e.g. the
// serial-vs-parallel PAB lookup). The empty Variant{} is the default
// configuration.
type Variant struct {
	Name  string `json:"name"`
	Knobs Knobs  `json:"knobs"`
}

// Spec declares a sweep: the cross-product of kinds x workloads x
// seeds x variants, or an explicit job list for campaigns that do not
// fit a cross-product (e.g. per-kind knobs).
type Spec struct {
	Name      string      `json:"name"`
	Kinds     []core.Kind `json:"kinds,omitempty"`
	Workloads []string    `json:"workloads,omitempty"`
	Seeds     []uint64    `json:"seeds,omitempty"`
	Variants  []Variant   `json:"variants,omitempty"`
	// Policies is the mode-policy axis: each entry crosses the sweep
	// with Knobs.Policy set to it ("" = the kind's static default).
	// Empty means the single default policy. The axis also applies to
	// explicit Jobs lists, multiplying the jobs that do not already
	// fix their own policy (jobs that do, like relia's adaptive-mode
	// cells, keep it — the policy is part of what their labels mean).
	Policies []string `json:"policies,omitempty"`
	// Jobs, when non-empty, bypasses the cross-product and is used
	// verbatim (still validated and deduplicated by Expand).
	Jobs []Job `json:"jobs,omitempty"`
	// Precision, when set, makes the campaign adaptive: Expand's jobs
	// become cells whose reliability trials the plan schedules in waves
	// under the sequential stopping rule instead of one fixed batch per
	// cell. Every cell must be a reliability cell
	// (Knobs.FaultInterval > 0); Cells checks that. Run such specs
	// through RunSpec.
	Precision *Precision `json:"precision,omitempty"`
}

// Expand produces the deterministic job set of the spec: the same spec
// always expands to the same jobs in the same order, with duplicate
// cells removed. Axes left empty default to all workloads, the
// two-seed default, and the single default variant.
func (s Spec) Expand() ([]Job, error) {
	if len(s.Jobs) > 0 {
		return dedupe(applyPolicies(s.Jobs, s.Policies))
	}
	if len(s.Kinds) == 0 {
		return nil, fmt.Errorf("campaign: spec %q has no kinds and no explicit jobs", s.Name)
	}
	wls := s.Workloads
	if len(wls) == 0 {
		wls = workload.Names()
	}
	seeds := s.Seeds
	if len(seeds) == 0 {
		seeds = DefaultSeeds()
	}
	variants := s.Variants
	if len(variants) == 0 {
		variants = []Variant{{}}
	}
	policies := s.Policies
	if len(policies) == 0 {
		policies = []string{""}
	}
	var jobs []Job
	for _, wl := range wls {
		for _, k := range s.Kinds {
			for _, v := range variants {
				for _, pol := range policies {
					for _, seed := range seeds {
						knobs := v.Knobs
						if pol != "" {
							knobs.Policy = pol
						}
						jobs = append(jobs, Job{
							Workload: wl,
							Kind:     k,
							Seed:     seed,
							Variant:  v.Name,
							Knobs:    knobs,
						})
					}
				}
			}
		}
	}
	return dedupe(jobs)
}

// applyPolicies crosses an explicit job list with the policy axis.
// Jobs whose policy is part of their identity (relia's adaptive
// modes preset Knobs.Policy) are never overwritten — their variant
// labels name the policy they run, so rewriting it would emit rows
// claiming one policy while simulating another; they pass through
// once per axis entry and dedupe collapses the copies.
func applyPolicies(jobs []Job, policies []string) []Job {
	if len(policies) == 0 {
		return jobs
	}
	out := make([]Job, 0, len(jobs)*len(policies))
	for _, pol := range policies {
		for _, j := range jobs {
			if pol != "" && j.Knobs.Policy == "" {
				j.Knobs.Policy = pol
			}
			out = append(out, j)
		}
	}
	return out
}

// dedupe validates workload and policy names — canonicalizing policy
// specs, so "duty-cycle:60000:25" and "duty-cycle" land in the same
// cell — and drops exact duplicate jobs while preserving order.
func dedupe(jobs []Job) ([]Job, error) {
	seen := make(map[Job]struct{}, len(jobs))
	out := jobs[:0:0]
	for _, j := range jobs {
		if _, err := workload.ByName(j.Workload); err != nil {
			return nil, fmt.Errorf("campaign: %w", err)
		}
		if j.Knobs.Policy != "" {
			canon, err := mode.Parse(j.Knobs.Policy)
			if err != nil {
				return nil, fmt.Errorf("campaign: %w", err)
			}
			if canon == "static" {
				// An explicit static policy is the default behavior;
				// normalize to the default cell so it shares the
				// baseline's cache entry instead of re-simulating it.
				canon = ""
			}
			j.Knobs.Policy = canon
		}
		if _, ok := seen[j]; ok {
			continue
		}
		seen[j] = struct{}{}
		out = append(out, j)
	}
	return out, nil
}
