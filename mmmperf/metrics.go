package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"syscall"
	"time"
	"unsafe"
)

// metricDef declares one reported metric. The two tables below are the
// benchmark's contract: BENCHMARK.json at the repository root lists
// exactly these names, units, directions and bounds (TestBenchmarkJSON
// pins the two together), and a run emits every entry of the table its
// mode reports — end-to-end metrics untraced, per-layer metrics traced.
type metricDef struct {
	name   string
	unit   string
	better string
	// bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	bound float64
}

// endToEnd are the metrics a user of the system sees. They are generic
// across workloads so every workload reports every one; what a "step"
// and a unit of work are is per workload (see workloads in main.go).
//
// Host times are process CPU time (user plus system, all threads), not
// wall time: on the virtual machine the benchmark was tuned on, the
// hypervisor steals the vCPUs for stretches of minutes and wall time
// then swings by 30-40%, while the guest kernel keeps stolen time out of
// CPU time. CPU time itself still slows by up to 40% while co-tenants
// load the physical cores, so every end-to-end host time is scaled by
// the speed factor of the calibration kernel run beside it (calib.go).
// Wall time and unscaled times are per-layer metrics (host.wall_s,
// host.cpu_per_wall, host.speed_factor).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"work_per_cpu_s", "1/s", "higher", 0.25},
	{"step_ms_p50", "ms", "lower", 0.25},
	{"step_ms_tail", "ms", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

// hostPackages are the layers whose CPU-profile self time the traced
// run reports as host.self_frac.<layer>: repro/internal packages, plus
// the runtime's collector and allocator ("gc"), encoding/json and
// system calls, where the campaign layer's cache and journal spend
// their time (see layerOf).
var hostPackages = []string{
	"core", "cpu", "cache", "paging", "reunion", "pab", "mode", "trace",
	"fault", "relia", "campaign", "gc", "json", "syscall",
}

// perLayer are the per-layer metrics of the traced run. A metric a
// workload does not exercise (no simulation in warm-regen, no trials in
// steady-sim) reports 0; every time-valued metric is measured on every
// workload.
var perLayer = func() []metricDef {
	var defs []metricDef
	add := func(unit, better string, names ...string) {
		for _, n := range names {
			defs = append(defs, metricDef{name: n, unit: unit, better: better})
		}
	}
	for _, c := range steadyCells() {
		add("Mcycle/s", "higher", "core.run_mcps."+c.name)
	}
	add("Minst/s", "higher", "core.minst_per_s")
	add("ms", "lower", "core.construct_ms", "core.warmup_ms")
	add("us", "lower", "core.collect_us")
	add("count", "higher", "core.enter_n", "core.leave_n", "core.ctx_n",
		"core.enter_n.mmm-ipc", "core.enter_n.mmm-tp")
	add("cycles", "lower", "core.enter_avg_cyc", "core.leave_avg_cyc")

	add("kinst", "higher", "cpu.kinst")
	add("inst/cycle", "higher", "cpu.user_ipc")
	add("fraction", "lower", "cpu.window_full_frac", "cpu.si_stall_frac",
		"cpu.fetch_stall_frac", "cpu.idle_frac")

	add("fraction", "lower", "cache.l1_miss_rate", "cache.l2_miss_rate")
	add("1/kinst", "lower", "cache.c2c_per_kinst", "cache.mem_per_kinst", "cache.inval_per_kinst")
	add("count", "lower", "cache.flushed_lines")

	add("1/kinst", "lower", "paging.tlb_miss_per_kinst")

	add("1/kinst", "lower", "reunion.checks_per_kinst")
	add("fraction", "lower", "reunion.check_wait_frac")
	add("count", "lower", "reunion.mismatches")

	add("1/kinst", "lower", "pab.checks_per_kinst",
		"pab.checks_per_kinst.mmm-ipc", "pab.checks_per_kinst.mmm-tp")
	add("fraction", "lower", "pab.miss_rate")
	add("count", "lower", "pab.exceptions")

	add("count", "higher", "fault.injected")
	add("fraction", "higher", "fault.hit_ratio")

	add("count", "lower", "relia.trials", "relia.cells_capped")
	add("count", "higher", "relia.cells_retired")
	add("%", "higher", "relia.trials_saved_pct")
	add("ms", "lower", "relia.trial.construct_ms", "relia.trial.warmup_ms", "relia.trial.measure_ms")
	add("us", "lower", "relia.trial.classify_us")
	add("%", "lower", "relia.trial.phase_gap_pct")

	add("fraction", "higher", "campaign.cache_hit_ratio")
	add("count", "lower", "campaign.journal_events")
	add("KiB", "lower", "campaign.journal_kb")
	add("us", "lower", "campaign.cache_get_us", "campaign.cache_put_us")
	add("ms", "lower", "campaign.run_hits_ms", "campaign.summarize_ms", "campaign.journal_replay_ms")
	add("s", "lower", "campaign.job_s_p50")

	for _, p := range hostPackages {
		add("fraction", "lower", "host.self_frac."+p)
	}
	add("s", "lower", "host.wall_s")
	add("fraction", "higher", "host.cpu_per_wall")
	add("ratio", "higher", "host.speed_factor")
	add("MB", "lower", "host.alloc_mb")
	add("B/cycle", "lower", "host.alloc_b_per_cycle")
	add("%", "lower", "host.trace_overhead_pct")
	return defs
}()

// validName reports whether s is a legal metric or workload name: it
// starts with a letter or digit and holds at most 64 letters, digits,
// '_', '.' and '-'.
func validName(s string) bool {
	if s == "" || len(s) > 64 {
		return false
	}
	for i, r := range s {
		alnum := r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9'
		if i == 0 && !alnum {
			return false
		}
		if !alnum && r != '_' && r != '.' && r != '-' {
			return false
		}
	}
	return true
}

// tailPercentiles are the candidate tail percentiles, highest first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 80, 75, 50}

// tailPercentile returns the highest candidate percentile that leaves at
// least ten of n samples beyond it (the median when none does): a tail
// figure resting on fewer samples is noise.
func tailPercentile(n int) float64 {
	for _, p := range tailPercentiles {
		if n-rank(p, n) >= 10 {
			return p
		}
	}
	return 50
}

// rank is the 1-based nearest-rank position of percentile p among n
// sorted samples.
func rank(p float64, n int) int {
	// The epsilon keeps float error (99.9/100*10000 = 9990.000000000002)
	// from pushing an exact rank up by one.
	k := int(math.Ceil(p/100*float64(n) - 1e-9))
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return k
}

// percentile returns the nearest-rank percentile p of xs (0 for none).
// xs is sorted in place.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	return xs[rank(p, len(xs))-1]
}

// median is percentile 50 on a copy of xs.
func median(xs []float64) float64 {
	return percentile(append([]float64(nil), xs...), 50)
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// ratio divides, reporting 0 for an empty denominator.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// rusage reads the process's resource usage. getrusage(RUSAGE_SELF)
// fails only on a bad pointer, which a bug alone can produce.
func rusage() syscall.Rusage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err))
	}
	return ru
}

// cpuTime is the process's CPU time so far, user plus system, over all
// threads. getrusage would give the same clock only to the scheduler
// tick (4 ms), too coarse for a 50 ms step.
func cpuTime() time.Duration { return clockTime(clockProcessCPUTime) }

// threadCPUTime is the calling thread's CPU time so far; the caller
// holds its OS thread for the interval it measures.
func threadCPUTime() time.Duration { return clockTime(clockThreadCPUTime) }

// Linux clock ids of clock_gettime(2).
const (
	clockProcessCPUTime = 2
	clockThreadCPUTime  = 3
)

// clockTime reads a clock_gettime clock, which fails only on a bad
// clock id or pointer, a bug alone.
func clockTime(id uintptr) time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic(fmt.Sprintf("clock_gettime(%d): %v", id, errno))
	}
	return time.Duration(ts.Nano())
}

// peakRSSMB is the process's peak resident set size in MB (Linux
// reports ru_maxrss in KiB).
func peakRSSMB() float64 { return float64(rusage().Maxrss) / 1024 }

// report is one run's outcome: operations attempted and failed, the
// check failures behind the failed count, and metric values by name.
type report struct {
	attempted int
	failed    int
	failures  []string
	values    map[string]float64
}

func newReport() *report { return &report{values: make(map[string]float64)} }

// op counts one operation; each non-empty problem fails it once.
func (r *report) op(problems ...string) {
	r.attempted++
	failed := false
	for _, p := range problems {
		if p != "" {
			r.failures = append(r.failures, p)
			failed = true
		}
	}
	if failed {
		r.failed++
	}
}

func (r *report) set(name string, v float64) { r.values[name] = v }

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultOut struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// write prints the metrics of defs as a readable table followed by the
// one-line JSON result, which is the last line of the output. Metrics
// of defs the run did not set report 0; a set metric declared in
// neither table, or an invalid name, is a benchmark bug and an error.
func (r *report) write(w io.Writer, defs []metricDef) error {
	declared := make(map[string]bool, len(endToEnd)+len(perLayer))
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		declared[d.name] = true
	}
	out := resultOut{
		Correct:   r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]metricOut, len(defs)),
	}
	for _, d := range defs {
		if !validName(d.name) {
			return fmt.Errorf("invalid metric name %q", d.name)
		}
		v := r.values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", d.name, v)
		}
		out.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
		fmt.Fprintf(w, "%-34s %14.6g %s\n", d.name, v, d.unit)
	}
	names := make([]string, 0, len(r.values))
	for n := range r.values {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if !declared[n] {
			return fmt.Errorf("metric %s is not declared", n)
		}
	}
	if out.Attempted < 1 {
		return fmt.Errorf("no operation attempted")
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
