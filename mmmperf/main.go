// Command mmmperf is the repository benchmark. It runs one named
// workload as a closed loop with a single client, checks the outputs,
// and prints every end-to-end metric (untraced) or every per-layer
// metric (traced) with its unit; the last line of its output is one
// JSON object. Build and run it from the repository root with
//
//	bash mmmperf/run.sh --workload steady-sim --seed 11 --seconds 12 --trace 0
//
// It measures each layer from outside: it times its own calls into
// the public functions of internal/core, internal/relia, internal/fault
// and internal/campaign and reads the simulated counters those calls
// return. A traced run adds spans around the same calls and a CPU
// profile folded into per-package self time, because the simulator's
// inner layers (cpu, cache, paging, reunion, pab, trace, mode) are
// reached only inside Chip.Run.
package main

import (
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/stats"
)

// defaultSeed is the seed whose results the reference values pin; it is
// the seed of the repository's quick campaigns.
const defaultSeed = 11

// workloads maps each workload name to its runner.
var workloads = map[string]func(*env, *report) error{
	"steady-sim":     runSteady,
	"relia-adaptive": runRelia,
	"warm-regen":     runRegen,
}

// env is one run's configuration.
type env struct {
	workload string
	seed     uint64
	seconds  int
	traced   bool
	// out holds everything the run writes: work is the run's own
	// directory for caches and journals, removed when it ends; spans
	// and profiles of traced runs stay under out/trace. Both lie inside
	// the checkout.
	out, work string
	// writeRef records this run's reference values instead of checking
	// them.
	writeRef bool
	// tr records the spans of a traced run; nil when untraced.
	tr *tracer
	// cal runs the speed-calibration kernel between the workload's steps
	// and scales the end-to-end host times (see calib.go).
	cal *calibrator
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mmmperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	e := &env{cal: &calibrator{}}
	fs.StringVar(&e.workload, "workload", "", "workload to run: steady-sim, relia-adaptive or warm-regen")
	fs.Uint64Var(&e.seed, "seed", defaultSeed, "seed the workload's inputs derive from")
	fs.IntVar(&e.seconds, "seconds", 8, "nominal measured seconds; sizes the measured work")
	trace := fs.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	fs.StringVar(&e.out, "out", ".bench_build", "directory for the run's caches, journals, spans and profiles")
	fs.BoolVar(&e.writeRef, "write-reference", false, "record the default seed's reference values in mmmperf/reference.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runWorkload, ok := workloads[e.workload]
	if !ok || e.seconds < 1 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "mmmperf: need --workload {steady-sim,relia-adaptive,warm-regen}, --seconds >= 1, --trace 0|1\n")
		return 2
	}
	e.traced = *trace == 1
	if e.traced {
		e.tr = newTracer()
	}
	if e.writeRef && (e.seed != defaultSeed || e.traced) {
		fmt.Fprintf(stderr, "mmmperf: -write-reference needs the default seed %d, untraced\n", defaultSeed)
		return 2
	}
	// Each run works in a directory of its own, removed afterwards.
	work := filepath.Join(e.out, "work", fmt.Sprintf("%s-%d-%d", e.workload, e.seed, os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		fmt.Fprintln(stderr, "mmmperf:", err)
		return 1
	}
	defer os.RemoveAll(work)
	e.work = work

	r := newReport()
	if err := runWorkload(e, r); err != nil {
		fmt.Fprintln(stderr, "mmmperf:", err)
		return 1
	}
	if e.traced {
		if err := e.tr.writeFile(e.tracePath() + ".spans.json"); err != nil {
			fmt.Fprintln(stderr, "mmmperf:", err)
			return 1
		}
	}
	defs := endToEnd
	if e.traced {
		defs = perLayer
		r.set("host.speed_factor", e.cal.factor())
	} else {
		r.set("peak_rss_mb", peakRSSMB())
	}
	fmt.Fprintf(stderr, "mmmperf: speed factor %.4f (median of %d calibration chunks, %.0f ms of CPU)\n",
		e.cal.factor(), len(e.cal.cost), ms(e.cal.spent))
	for _, f := range r.failures {
		fmt.Fprintln(stderr, "mmmperf: check failed:", f)
	}
	if err := r.write(stdout, defs); err != nil {
		fmt.Fprintln(stderr, "mmmperf:", err)
		return 1
	}
	return 0
}

// tracePath is the stem of a traced run's span log and CPU profile.
func (e *env) tracePath() string {
	return filepath.Join(e.out, "trace", fmt.Sprintf("%s-seed%d", e.workload, e.seed))
}

// profiled runs fn as the traced pass: its spans go to the run's
// tracer and its host CPU profile, written next to the span log, is
// folded into host.self_frac.<layer>. It returns fn's host time.
func (e *env) profiled(r *report, fn func(*tracer) error) (time.Duration, error) {
	base := e.tracePath()
	if err := os.MkdirAll(filepath.Dir(base), 0o755); err != nil {
		return 0, err
	}
	f, err := os.Create(base + ".cpu.pprof")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	if err := pprof.StartCPUProfile(f); err != nil {
		return 0, err
	}
	start := time.Now()
	runErr := fn(e.tr)
	wall := time.Since(start)
	pprof.StopCPUProfile()
	if runErr != nil {
		return 0, runErr
	}
	if err := f.Close(); err != nil {
		return 0, err
	}
	data, err := os.ReadFile(base + ".cpu.pprof")
	if err != nil {
		return 0, err
	}
	self, total, err := selfByFunction(data)
	if err != nil {
		return 0, err
	}
	if total == 0 {
		return 0, errors.New("traced pass recorded no CPU profile samples")
	}
	shares := foldByLayer(self, total)
	for _, p := range hostPackages {
		r.set("host.self_frac."+p, shares[p])
	}
	return wall, nil
}

// overheadPct is the traced pass's extra host time over the untraced
// pass, in percent.
func overheadPct(traced, untraced time.Duration) float64 {
	return 100 * (traced.Seconds()/untraced.Seconds() - 1)
}

// rowReference records the Summarize row means whose metric is one of
// names, or starts with a name ending in ':'. Rows are compared by name
// so that new row families do not disturb the check.
func rowReference(got map[string]float64, rows []stats.Row, names ...string) {
	for _, row := range rows {
		for _, n := range names {
			if row.Metric == n || strings.HasSuffix(n, ":") && strings.HasPrefix(row.Metric, n) {
				got[row.Key+"|"+row.Metric] = row.Mean
			}
		}
	}
}

//go:embed reference.json
var referenceJSON []byte

// referencePath is where -write-reference records reference values,
// relative to the repository root.
const referencePath = "mmmperf/reference.json"

// reference compares got against the workload's reference values — one
// operation, failed by any mismatch — at the default seed, or records
// got as the new reference under -write-reference.
func (e *env) reference(r *report, got map[string]float64) error {
	if e.seed != defaultSeed {
		return nil
	}
	data := referenceJSON
	if e.writeRef {
		// Other workloads' sections may have been rewritten since the
		// build embedded the file.
		var err error
		if data, err = os.ReadFile(referencePath); err != nil {
			return err
		}
	}
	var all map[string]map[string]float64
	if err := json.Unmarshal(data, &all); err != nil {
		return fmt.Errorf("reference.json: %w", err)
	}
	if e.writeRef {
		if all == nil {
			all = make(map[string]map[string]float64)
		}
		all[e.workload] = got
		data, err := json.MarshalIndent(all, "", " ")
		if err != nil {
			return err
		}
		return os.WriteFile(referencePath, append(data, '\n'), 0o644)
	}
	want := all[e.workload]
	keys := make([]string, 0, len(want))
	for k := range want {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var problems []string
	if len(want) == 0 {
		problems = append(problems, "no reference values for "+e.workload)
	}
	for _, k := range keys {
		g, ok := got[k]
		if !ok || !sameValue(g, want[k]) {
			problems = append(problems, fmt.Sprintf("reference %s = %s, want %v", k, show(g, ok), want[k]))
		}
	}
	if len(problems) > 5 {
		problems = append(problems[:5], fmt.Sprintf("... and %d more reference mismatches", len(problems)-5))
	}
	r.op(problems...)
	return nil
}

// sameValue compares two reference values; the tolerance only absorbs
// the last-digit rounding of a JSON round trip.
func sameValue(a, b float64) bool {
	return a == b || math.Abs(a-b) <= 1e-12*math.Max(math.Abs(a), math.Abs(b))
}

func show(v float64, ok bool) string {
	if !ok {
		return "missing"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
