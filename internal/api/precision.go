package api

import (
	"fmt"

	"repro/internal/stats"
)

// Bounds of the precision axis, advertised by GET /v1/catalog and
// enforced at submit time. The lower half-width bound keeps the
// worst-case trial budget (stats.WorstCaseTrials) within what a
// campaign can actually execute; the upper bound rejects targets so
// loose the first wave always satisfies them, which would silently
// degrade an "adaptive" run into a fixed wave-sized batch.
const (
	MinHalfWidth = 0.001
	MaxHalfWidth = 0.25
)

// Default sizing for precision blocks that leave the knobs zero.
const (
	DefaultWaveTrials = 12
	DefaultMinWaves   = 2
)

// maxTrials bounds each of a block's trial counts (wave_trials,
// min_trials, max_trials): the largest budget the defaults compute, the
// worst case at MinHalfWidth rounded up to a whole default wave. A
// submission cannot schedule more trials per cell than the tightest
// target needs, and a wave so large that Normalized's rounding wraps is
// refused by name.
var maxTrials = waveMultiple(int(stats.WorstCaseTrials(MinHalfWidth)), DefaultWaveTrials)

// waveMultiple rounds n up to a whole number of waves.
func waveMultiple(n, wave int) int {
	return (n + wave - 1) / wave * wave
}

// PrecisionMetrics lists the proportions a stopping rule can target.
// "coverage" is covered/exposed across all injected kinds; "sdc" is
// its complement (1 - coverage). The two Wilson intervals are mirror
// images, so the half-width — and therefore the stopping decision —
// is identical; both names are accepted so a spec reads naturally for
// the question it asks.
var PrecisionMetrics = []string{"coverage", "sdc"}

// Precision is the sequential-stopping block of an adaptive campaign
// spec: run each cell's reliability trials in waves of WaveTrials,
// retire the cell once its 95% Wilson interval on Metric has
// half-width at most HalfWidth (never before MinTrials trials), and
// cap the cell at MaxTrials regardless.
type Precision struct {
	// Metric names the targeted proportion; see PrecisionMetrics.
	// Empty means "coverage".
	Metric string `json:"metric,omitempty"`
	// HalfWidth is the target 95% Wilson half-width, e.g. 0.01 for
	// ±1 percentage point. Required; bounded by [MinHalfWidth,
	// MaxHalfWidth].
	HalfWidth float64 `json:"half_width"`
	// WaveTrials is the number of Monte Carlo trials per wave.
	// Zero means DefaultWaveTrials.
	WaveTrials int `json:"wave_trials,omitempty"`
	// MinTrials is the floor below which a cell is never retired, so
	// a lucky tiny sample cannot stop a cell early. Zero means
	// DefaultMinWaves full waves.
	MinTrials int `json:"min_trials,omitempty"`
	// MaxTrials caps a cell's total trials. Zero means the worst-case
	// sample size for HalfWidth (the n at which even p=0.5 meets the
	// target — the size a fixed-batch design must provision), rounded
	// up to a whole wave. With that default every cell provably ends
	// within target, and any cell whose proportion sits away from 0.5
	// retires earlier: the trials-saved-vs-fixed win.
	MaxTrials int `json:"max_trials,omitempty"`
}

// Normalized returns a copy with the documented defaults filled in.
func (p Precision) Normalized() Precision {
	if p.Metric == "" {
		p.Metric = "coverage"
	}
	if p.WaveTrials == 0 {
		p.WaveTrials = DefaultWaveTrials
	}
	if p.MinTrials == 0 {
		p.MinTrials = DefaultMinWaves * p.WaveTrials
	}
	if p.MaxTrials == 0 {
		p.MaxTrials = waveMultiple(int(stats.WorstCaseTrials(p.HalfWidth)), p.WaveTrials)
	}
	if p.MaxTrials < p.MinTrials {
		p.MaxTrials = p.MinTrials
	}
	return p
}

// Validate checks a (typically Normalized) precision block and
// returns an error naming the valid bounds on rejection, so a 400
// response tells the client exactly what to fix.
func (p Precision) Validate() error {
	ok := false
	for _, m := range PrecisionMetrics {
		if p.Metric == m {
			ok = true
			break
		}
	}
	if !ok {
		return fmt.Errorf("precision: unknown metric %q (valid: %v)", p.Metric, PrecisionMetrics)
	}
	if p.HalfWidth < MinHalfWidth || p.HalfWidth > MaxHalfWidth {
		return fmt.Errorf("precision: half_width %g outside valid bounds [%g, %g]",
			p.HalfWidth, MinHalfWidth, MaxHalfWidth)
	}
	if p.WaveTrials < 1 || p.WaveTrials > maxTrials {
		return fmt.Errorf("precision: wave_trials %d outside valid bounds [1, %d]", p.WaveTrials, maxTrials)
	}
	if p.MinTrials < 1 || p.MinTrials > maxTrials {
		return fmt.Errorf("precision: min_trials %d outside valid bounds [1, %d]", p.MinTrials, maxTrials)
	}
	if p.MaxTrials > maxTrials {
		return fmt.Errorf("precision: max_trials %d above the limit %d", p.MaxTrials, maxTrials)
	}
	if p.MaxTrials < p.MinTrials {
		return fmt.Errorf("precision: max_trials %d below min_trials %d", p.MaxTrials, p.MinTrials)
	}
	return nil
}

// Axis describes the precision axis for the catalog: which metrics a
// stopping rule can target, the bounds a submitted half-width must
// respect, and the limit on each trial count.
type Axis struct {
	Metrics           []string `json:"metrics"`
	MinHalfWidth      float64  `json:"min_half_width"`
	MaxHalfWidth      float64  `json:"max_half_width"`
	MaxTrials         int      `json:"max_trials"`
	DefaultWaveTrials int      `json:"default_wave_trials"`
}

// PrecisionAxis returns the advertised precision axis.
func PrecisionAxis() Axis {
	return Axis{
		Metrics:           append([]string(nil), PrecisionMetrics...),
		MinHalfWidth:      MinHalfWidth,
		MaxHalfWidth:      MaxHalfWidth,
		MaxTrials:         maxTrials,
		DefaultWaveTrials: DefaultWaveTrials,
	}
}
