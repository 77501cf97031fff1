// Command mmmbench regenerates every table and figure of the paper's
// evaluation (Section 5) on the simulated Mixed-Mode Multicore, plus
// the design studies and ablations around it:
//
//	mmmbench                  # everything, default scale
//	mmmbench -exp fig5a       # one experiment
//	mmmbench -quick           # reduced scale (fast smoke run)
//	mmmbench -measure 3000000 # override the measurement window
//	mmmbench -cache ./cache   # reuse results across invocations
//	mmmbench -json out.json   # machine-readable per-experiment results
//	mmmbench -workers n1:8078,n2:8078  # shard jobs across mmmd -worker nodes
//
// Experiments, in the order -exp all runs them: fig5a, fig5b, fig6a,
// fig6b, table1, table2, pab, singleos, faults, relia, policy, tso,
// flush. Every experiment runs on one campaign runner with one result
// cache (-cache, or in memory for the process), so an experiment
// whose cells another already simulated reuses them: fig5b and
// table2 read fig5a's cells, fig6b and table1 fig6a's, and policy's
// static baseline is fig6a's MMM-IPC column.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	rtrace "runtime/trace"
	"strings"
	"time"

	"repro/internal/campaign"
	"repro/internal/exp"
	"repro/internal/mode"
	"repro/internal/sim"
	"repro/internal/stats"
)

// expResult is one experiment's machine-readable record, consumed by
// the perf-trajectory BENCH_*.json tooling.
type expResult struct {
	Experiment string  `json:"experiment"`
	Rows       int     `json:"rows"`
	WallMS     float64 `json:"wall_ms"`
	// Trials counts the Monte Carlo trial slices the reliability study
	// simulated — the quantity -halfwidth exists to shrink; 0 for
	// experiments without a trial axis.
	Trials int `json:"trials,omitempty"`
}

// experiment is one entry of the evaluation: the -exp name and the
// study that renders its table and counts the trials it ran.
type experiment struct {
	name  string
	study func(exp.Config) (t *stats.Table, trials int, err error)
}

// rendered adapts a study and its table renderer to an experiment
// without a trial axis.
func rendered[R any](study func(exp.Config) ([]R, error), render func([]R) *stats.Table) func(exp.Config) (*stats.Table, int, error) {
	return func(c exp.Config) (*stats.Table, int, error) {
		rows, err := study(c)
		if err != nil {
			return nil, 0, err
		}
		return render(rows), 0, nil
	}
}

// experiments is the evaluation, in the order -exp all runs it.
var experiments = []experiment{
	{"fig5a", rendered(exp.Figure5, exp.Figure5aTable)},
	{"fig5b", rendered(exp.Figure5, exp.Figure5bTable)},
	{"fig6a", rendered(exp.Figure6, exp.Figure6aTable)},
	{"fig6b", rendered(exp.Figure6, exp.Figure6bTable)},
	{"table1", rendered(exp.Table1, exp.Table1Table)},
	{"table2", rendered(exp.Table2, exp.Table2Table)},
	{"pab", rendered(exp.PABStudy, exp.PABTable)},
	{"singleos", rendered(exp.SingleOSOverhead, exp.SingleOSTable)},
	{"faults", rendered(func(c exp.Config) ([]exp.FaultRow, error) {
		return exp.FaultStudy(c, "apache", 40_000)
	}, exp.FaultTable)},
	{"relia", func(c exp.Config) (*stats.Table, int, error) {
		rows, err := exp.ReliabilityStudy(c)
		if err != nil {
			return nil, 0, err
		}
		trials := 0
		for _, r := range rows {
			trials += r.Trials
		}
		return exp.ReliabilityTable(rows), trials, nil
	}},
	{"policy", rendered(exp.PolicyStudy, exp.PolicyTable)},
	{"tso", rendered(exp.TSOAblation, exp.TSOTable)},
	{"flush", rendered(func(c exp.Config) ([]exp.FlushRow, error) {
		return exp.FlushAblation(c, "oltp")
	}, func(rows []exp.FlushRow) *stats.Table { return exp.FlushTable("oltp", rows) })},
}

// experimentNames lists the -exp values: all, then every experiment.
func experimentNames() []string {
	names := []string{"all"}
	for _, e := range experiments {
		names = append(names, e.name)
	}
	return names
}

func main() {
	var (
		which     = flag.String("exp", "all", "experiment: "+strings.Join(experimentNames(), ","))
		policies  = flag.String("policies", "", "comma-separated mode-policy axis for -exp policy (e.g. 'static,duty-cycle:60000:25'); empty sweeps every registered policy")
		quick     = flag.Bool("quick", false, "reduced scale for a fast smoke run")
		warmup    = flag.Uint64("warmup", 0, "override warmup cycles")
		measure   = flag.Uint64("measure", 0, "override measurement cycles")
		slice     = flag.Uint64("timeslice", 0, "override gang-scheduling timeslice cycles")
		seeds     = flag.Int("seeds", 0, "override number of seeds")
		wls       = flag.String("workloads", "", "comma-separated workload subset (empty = all six)")
		par       = flag.Int("parallel", 0, "override worker parallelism")
		cacheDir  = flag.String("cache", "", "campaign result cache directory (empty = in memory, for this run only)")
		hw        = flag.Float64("halfwidth", 0, "run -exp relia with sequential stopping: trials in waves until each cell's 95% interval on coverage is within this half-width (e.g. 0.05)")
		fixTrials = flag.Int("trials", 0, "override -exp relia fixed trials per cell (sizes a fixed-batch run to an adaptive run's worst-case budget; ignored with -halfwidth)")
		workers   = flag.String("workers", "", "comma-separated mmmd worker fleet (host:port,...); shards campaign jobs remotely")
		coord     = flag.String("coordinator", "", "job-board bind address for -workers (host[:port]); set a host the workers can reach for cross-host fleets (default loopback, single-machine only)")
		jsonOut   = flag.String("json", "", "write per-experiment results as JSON to this file (- for stdout)")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile (go tool pprof) to this file")
		memProf   = flag.String("memprofile", "", "write a heap profile (go tool pprof) to this file at exit")
		execTr    = flag.String("trace", "", "write a runtime execution trace (go tool trace) to this file")
	)
	flag.Parse()

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mmmbench: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "mmmbench: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		defer pprof.StopCPUProfile()
	}
	if *execTr != "" {
		f, err := os.Create(*execTr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mmmbench: %v\n", err)
			os.Exit(1)
		}
		if err := rtrace.Start(f); err != nil {
			fmt.Fprintf(os.Stderr, "mmmbench: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		defer rtrace.Stop()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintf(os.Stderr, "mmmbench: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle live-heap accounting before the snapshot
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "mmmbench: %v\n", err)
			}
		}()
	}

	cfg := exp.Default()
	if *quick {
		cfg = exp.Quick()
	}
	if *warmup > 0 {
		cfg.Warmup = sim.Cycle(*warmup)
	}
	if *measure > 0 {
		cfg.Measure = sim.Cycle(*measure)
	}
	if *slice > 0 {
		cfg.Timeslice = sim.Cycle(*slice)
	}
	if *seeds > 0 {
		cfg.Seeds = cfg.Seeds[:0]
		for i := 0; i < *seeds; i++ {
			cfg.Seeds = append(cfg.Seeds, uint64(11+10*i))
		}
	}
	if *wls != "" {
		for _, w := range strings.Split(*wls, ",") {
			if w = strings.TrimSpace(w); w != "" {
				cfg.Workloads = append(cfg.Workloads, w)
			}
		}
	}
	if *policies != "" {
		for _, p := range strings.Split(*policies, ",") {
			p = strings.TrimSpace(p)
			if _, err := mode.Parse(p); err != nil {
				fmt.Fprintf(os.Stderr, "mmmbench: -policies: %v\n", err)
				os.Exit(2)
			}
			cfg.Policies = append(cfg.Policies, p)
		}
	}
	if *hw > 0 {
		cfg.Precision = &campaign.Precision{HalfWidth: *hw}
	}
	cfg.ReliaTrials = *fixTrials
	// One runner with one cache serves every experiment, so cells one
	// experiment simulated are hits for the next.
	var cache campaign.Cache = campaign.NewMemCache()
	if *cacheDir != "" {
		disk, err := campaign.NewDiskCache(*cacheDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mmmbench: %v\n", err)
			os.Exit(1)
		}
		cache = disk
	}
	if *workers != "" {
		fleet := campaign.ParseWorkerList(*workers)
		if len(fleet) == 0 {
			fmt.Fprintf(os.Stderr, "mmmbench: -workers %q names no workers\n", *workers)
			os.Exit(1)
		}
		// The dispatcher honors the same cache, so mixed local/remote
		// reruns resume from each other's results.
		cfg.Runner = campaign.NewDispatcher(campaign.DispatchOptions{
			Workers: fleet,
			Cache:   cache,
			Addr:    campaign.CoordinatorAddr(*coord),
		})
	} else {
		cfg.Runner = campaign.New(campaign.Options{Parallel: *par, Cache: cache})
	}

	var results []expResult
	for _, e := range experiments {
		if *which != "all" && !strings.EqualFold(*which, e.name) {
			continue
		}
		start := time.Now()
		t, trials, err := e.study(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mmmbench: %s: %v\n", e.name, err)
			os.Exit(1)
		}
		fmt.Println(t)
		wall := time.Since(start)
		fmt.Printf("[%s completed in %v]\n\n", e.name, wall.Round(time.Millisecond))
		results = append(results, expResult{
			Experiment: e.name,
			Rows:       len(t.Rows),
			WallMS:     float64(wall.Microseconds()) / 1000,
			Trials:     trials,
		})
	}
	if results == nil {
		fmt.Fprintf(os.Stderr, "mmmbench: unknown experiment %q (have %s)\n",
			*which, strings.Join(experimentNames(), ", "))
		os.Exit(2)
	}

	if *jsonOut != "" {
		if err := writeJSON(*jsonOut, results); err != nil {
			fmt.Fprintf(os.Stderr, "mmmbench: %v\n", err)
			os.Exit(1)
		}
	}
}

// writeJSON emits the per-experiment records to path ("-" = stdout).
func writeJSON(path string, results []expResult) error {
	var total float64
	for _, r := range results {
		total += r.WallMS
	}
	doc := struct {
		Experiments []expResult `json:"experiments"`
		TotalWallMS float64     `json:"total_wall_ms"`
	}{Experiments: results, TotalWallMS: total}
	out := os.Stdout
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}
