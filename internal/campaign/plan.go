package campaign

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/relia"
	"repro/internal/stats"
)

// A campaign runs as a plan on a board. The plan decides *what* runs:
// which job each cell schedules next and when the cell retires. The
// board (board.go) decides *where* — a pool goroutine or a fleet lease
// — and owns everything around a completion: the cache, the journal,
// the merge order and progress.
//
// A fixed campaign is the degenerate plan: each cell is one job,
// retired by its first completion, and its Result is that job's
// metrics verbatim.
//
// An adaptive campaign (a spec with a Precision block) runs sequential
// stopping in waves. A fixed-batch campaign spends the same trial
// budget on every cell, so the budget is sized for the hardest cell and
// most of it is wasted on cells whose proportions are nowhere near
// p=0.5. An adaptive campaign instead declares a target precision (a
// Wilson half-width on coverage or SDC probability) and lets each cell
// run just enough trials: the plan expands every cell into
// deterministic *waves* of trials, applies the stopping rule after each
// wave, and retires the cell the moment its interval is narrow enough —
// or caps it at MaxTrials, which Precision.Normalized defaults to the
// worst-case (p=0.5) trial count, so every cell terminates within the
// target.
//
// Determinism is wave-shaped, not schedule-shaped. Wave k of a cell
// always covers the same global trial indices ([offset, offset+size)),
// each wave job's fingerprint derives from (cell fingerprint, wave
// index, offset), and trial seeds derive from the global index — so
// cached, resumed and distributed runs are byte-identical at equal
// target precision, whatever order the board ran the waves in. Cells
// are independent: each one observes only its own waves, so cross-cell
// completion order cannot change any stopping decision. There is no
// global barrier — a cell's next wave is schedulable the instant its
// previous wave lands, while other cells' waves are still in flight,
// and freed capacity flows to the widest intervals first.

// cellState tracks one cell's progress. The board serializes every
// access under its mutex.
type cellState struct {
	job     Job // the fixed job, or the adaptive cell's wave-invariant identity
	wave    int // waves scheduled so far
	trials  int // trials scheduled so far
	waves   int // jobs completed so far
	hits    int // completed jobs served from the cache
	cycles  uint64
	faults  uint64
	wall    time.Duration      // summed wall time of the simulated jobs
	batches []*core.ReliaBatch // completed waves, in wave order
	half    float64            // Wilson half-width after the last completed wave
	capped  bool               // retired at MaxTrials instead of at target
	merged  outcome            // the cell's result, set when it retires
}

// outcome is one finished job, or a retired cell's result, with the
// provenance a journal event carries.
type outcome struct {
	Result
	worker string        // who simulated it; "" for a cache hit or a wave-merged aggregate
	wall   time.Duration // wall time of the simulated job(s)
	fp     string        // the result's cache key; "" for a wave-merged aggregate
}

// plan is the campaign's schedule: its cells in expansion order and,
// for an adaptive campaign, the normalized precision block that drives
// their waves.
type plan struct {
	sc    Scale
	prec  *Precision // nil for a fixed campaign
	cells []cellState
}

// fixedPlan plans an expanded job list: one cell per job, in order.
func fixedPlan(sc Scale, jobs []Job) *plan {
	p := &plan{sc: sc, cells: make([]cellState, len(jobs))}
	for i, j := range jobs {
		// Half-width 1 is the widest interval: every fixed job leases at
		// the same priority, so the board's FIFO keeps expansion order.
		p.cells[i] = cellState{job: j, half: 1}
	}
	return p
}

// newPlan validates and plans a spec.
func newPlan(sc Scale, spec Spec) (*plan, error) {
	cells, prec, err := spec.Cells()
	if err != nil {
		return nil, err
	}
	p := fixedPlan(sc, cells)
	p.prec = prec
	return p, nil
}

// Cells expands the spec into the cells it runs as and checks that it
// can run; it is the validation every executor applies, exported so a
// service can reject a submission before queueing it. A fixed spec's
// cells are its expanded jobs and prec is nil. An adaptive spec returns
// its normalized precision block, and every cell must inject faults —
// the stopping rule is a Wilson interval over fault outcomes, so a cell
// that injects nothing can never converge. An adaptive cell is its
// jobs' wave-invariant identity: the trial knobs are dropped, so every
// wave of one cell (and the cell's expanded job, whatever fixed trial
// count it declared) maps to it, and cells must stay distinct without
// those knobs.
func (s Spec) Cells() (cells []Job, prec *Precision, err error) {
	if s.Precision == nil {
		cells, err = s.Expand()
		return cells, nil, err
	}
	p := s.Precision.Normalized()
	if err := p.Validate(); err != nil {
		return nil, nil, err
	}
	cells, err = s.Expand()
	if err != nil {
		return nil, nil, err
	}
	seen := make(map[Job]bool, len(cells))
	for i, j := range cells {
		if j.Knobs.FaultInterval <= 0 {
			return nil, nil, fmt.Errorf(
				"campaign: adaptive precision needs fault-injection cells, but %q cell %s has no fault_interval",
				s.Name, j.Key())
		}
		j.Knobs.ReliaTrials, j.Knobs.Wave, j.Knobs.TrialOffset = 0, 0, 0
		if seen[j] {
			return nil, nil, fmt.Errorf(
				"campaign: adaptive cells collide on %s after dropping trial knobs (cells may not differ only in relia_trials)",
				j.Key())
		}
		seen[j] = true
		cells[i] = j
	}
	return cells, &p, nil
}

// next mints the cell's next job: a fixed cell's job itself, or the
// next wave — 1-based wave index, trial offset continuing where the
// previous wave ended, size clamped so the cell never exceeds
// MaxTrials.
func (p *plan) next(c *cellState) Job {
	if p.prec == nil {
		return c.job
	}
	size := p.prec.WaveTrials
	if rem := p.prec.MaxTrials - c.trials; size > rem {
		size = rem
	}
	j := c.job
	j.Knobs.Wave = c.wave + 1
	j.Knobs.TrialOffset = c.trials
	j.Knobs.ReliaTrials = size
	c.wave++
	c.trials += size
	return j
}

// halfWidth evaluates the stopping metric over the cell's merged waves.
// With no exposed faults yet, Wilson reports the vacuous [0,1] interval
// (half-width 0.5): the cell keeps scheduling until data arrives or
// MaxTrials caps it — no precision claim without observations.
func (p *plan) halfWidth(c *cellState) float64 {
	merged := relia.MergeBatches(c.batches)
	if merged == nil {
		return 1
	}
	covered, exposed := relia.Coverage(merged, "")
	num := covered
	if p.prec.Metric == "sdc" {
		num = exposed - covered
	}
	return stats.WilsonHalfWidth(num, exposed)
}

// observe folds one finished job of a cell into it and returns the
// cell's next job, or more=false once the cell retired. A fixed cell
// retires on its first completion, with that job's outcome verbatim.
// An adaptive cell applies the stopping rule: retire when the interval
// is inside the target (and MinTrials guards against a lucky first
// wave), cap at MaxTrials, otherwise schedule the next wave. The board
// holds at most one job of a cell at a time, so batches accumulate in
// wave order and the merged aggregate equals a single batch of the same
// trials.
func (p *plan) observe(cell int, o outcome) (Job, bool, error) {
	c := &p.cells[cell]
	c.waves++
	if o.CacheHit {
		c.hits++
	}
	c.wall += o.wall
	if p.prec == nil {
		c.merged = o
		return Job{}, false, nil
	}
	m := o.Metrics
	if m.Relia == nil {
		return Job{}, false, fmt.Errorf("campaign: wave of cell %s carried no trial batch", c.job.Key())
	}
	c.batches = append(c.batches, m.Relia)
	c.cycles += m.Cycles
	c.faults += m.FaultsInjected
	c.half = p.halfWidth(c)
	switch {
	case c.trials >= p.prec.MinTrials && c.half <= p.prec.HalfWidth:
	case c.trials >= p.prec.MaxTrials:
		c.capped = true
	default:
		return p.next(c), true, nil
	}
	// The merged aggregate is the cell's job with the realized trial
	// count (Key ignores it, so aggregation is unaffected), the wave
	// batches merged in wave order and the additive counters summed. It
	// counts as a cache hit only when every wave came from the cache —
	// then a warm resume re-simulated nothing.
	j := c.job
	j.Knobs.ReliaTrials = c.trials
	c.merged = outcome{
		Result: Result{
			Job: j,
			Metrics: core.Metrics{
				Kind:           j.Kind,
				Workload:       j.Workload,
				Cycles:         c.cycles,
				FaultsInjected: c.faults,
				Relia:          relia.MergeBatches(c.batches),
			},
			CacheHit: c.hits == c.waves,
		},
		wall: c.wall,
	}
	// The journal's merged event keeps the cell alive for the run's
	// history; the wave batches are in the merged one now.
	c.batches = nil
	return Job{}, false, nil
}

// results returns every cell's Result in expansion order. The board
// calls it only after every cell retired.
func (p *plan) results() []Result {
	out := make([]Result, len(p.cells))
	for i := range p.cells {
		out[i] = p.cells[i].merged.Result
	}
	return out
}
