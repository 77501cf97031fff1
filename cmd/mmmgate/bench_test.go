package main

import (
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"
)

// testBench is a two-metric benchmark with the repository's 25% bound,
// one metric per direction.
const testBench = `{
  "command": ["bash", "mmmperf/run.sh"],
  "paths": ["mmmperf"],
  "run_seconds": 12,
  "workloads": [{"name": "steady-sim"}, {"name": "warm-regen"}],
  "end_to_end": [
    {"name": "work_per_cpu_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "step_ms_p50", "unit": "ms", "better": "lower", "bound": 0.25}
  ]
}`

func mustBenchmark(t *testing.T, data []byte) *benchmark {
	t.Helper()
	bm, err := decodeBenchmark(data)
	if err != nil {
		t.Fatal(err)
	}
	return bm
}

// repoBenchmark is the repository's own BENCHMARK.json, whose bounds
// the gate applies.
func repoBenchmark(t *testing.T) *benchmark {
	t.Helper()
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	return mustBenchmark(t, data)
}

// result is one correct run that attempted 10 operations and read the
// given metric values.
func result(values map[string]float64) runResult {
	r := runResult{Correct: true, Attempted: 10}
	r.Metrics = make(map[string]struct {
		Value float64 `json:"value"`
	}, len(values))
	for n, v := range values {
		r.Metrics[n] = struct {
			Value float64 `json:"value"`
		}{v}
	}
	return r
}

// fromWorse builds every workload's runs so that, in pair i, metric m
// of the head reads worse[workload][m][i] percent worse than the
// parent's 100. Metrics a workload does not list read 100 on both
// sides.
func fromWorse(bm *benchmark, worse map[string]map[string][pairs]float64) measured {
	res := make(measured)
	for _, w := range bm.Workloads {
		var rs [pairs][2]runResult
		for i := range rs {
			parent, head := map[string]float64{}, map[string]float64{}
			for _, m := range bm.EndToEnd {
				p := worse[w.Name][m.Name][i] / 100
				if m.Better == "higher" {
					p = -p
				}
				parent[m.Name], head[m.Name] = 100, 100*(1+p)
			}
			rs[i] = [2]runResult{result(parent), result(head)}
		}
		res[w.Name] = rs
	}
	return res
}

func mustVerdict(t *testing.T, bm *benchmark, res measured) []string {
	t.Helper()
	report, failures, err := verdict(bm, res)
	if err != nil {
		t.Fatal(err)
	}
	if want := 1 + len(bm.Workloads)*(1+len(bm.EndToEnd)); len(report) != want {
		t.Errorf("report has %d lines, want %d:\n%s", len(report), want, strings.Join(report, "\n"))
	}
	return failures
}

// TestDecodeBenchmark: the gate reads the repository's BENCHMARK.json,
// and rejects a file it could not gate with.
func TestDecodeBenchmark(t *testing.T) {
	bm := repoBenchmark(t)
	if len(bm.Command) == 0 || len(bm.Paths) == 0 || bm.RunSeconds < 1 || len(bm.Workloads) < 3 || len(bm.EndToEnd) == 0 {
		t.Fatalf("BENCHMARK.json read as %+v", bm)
	}
	for _, bad := range []string{
		`{`,
		`{"command": [], "run_seconds": 12, "workloads": [{"name": "w"}], "end_to_end": [{"name": "m", "better": "lower", "bound": 0.25}]}`,
		`{"command": ["x"], "run_seconds": 12, "workloads": [], "end_to_end": [{"name": "m", "better": "lower", "bound": 0.25}]}`,
		`{"command": ["x"], "run_seconds": 12, "workloads": [{"name": "w"}], "end_to_end": [{"name": "m", "better": "less", "bound": 0.25}]}`,
		`{"command": ["x"], "run_seconds": 12, "workloads": [{"name": "w"}], "end_to_end": [{"name": "m", "better": "lower"}]}`,
	} {
		if _, err := decodeBenchmark([]byte(bad)); err == nil {
			t.Errorf("accepted %s", bad)
		}
	}
}

// TestMeasureRunOrder: pair i runs seed 11+i on both sides, the parent
// first in pair 0 and the head first in pair 1, and each result lands
// under its own pair and side.
func TestMeasureRunOrder(t *testing.T) {
	bm := mustBenchmark(t, []byte(testBench))
	var calls []string
	res, err := measure(bm, func(side int, workload string, seed int) (runResult, error) {
		calls = append(calls, fmt.Sprintf("%s/%s/%d", workload, sideNames[side], seed))
		return runResult{Attempted: 100*seed + side}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"steady-sim/parent/11", "steady-sim/head/11", "steady-sim/head/12", "steady-sim/parent/12",
		"warm-regen/parent/11", "warm-regen/head/11", "warm-regen/head/12", "warm-regen/parent/12",
	}
	if !reflect.DeepEqual(calls, want) {
		t.Fatalf("run order\n got %v\nwant %v", calls, want)
	}
	for _, w := range bm.Workloads {
		for i, pair := range res[w.Name] {
			for side, r := range pair {
				if r.Attempted != 100*(firstSeed+i)+side {
					t.Errorf("%s pair %d %s holds the run of %d", w.Name, i, sideNames[side], r.Attempted)
				}
			}
		}
	}

	// A failed run stops the measurement and names itself.
	_, err = measure(bm, func(side int, workload string, seed int) (runResult, error) {
		if side == 1 && seed == 12 {
			return runResult{}, fmt.Errorf("exit status 1")
		}
		return runResult{}, nil
	})
	if err == nil || !strings.Contains(err.Error(), "head steady-sim seed 12") {
		t.Fatalf("failed run: %v", err)
	}
}

// TestBenchGate: the gate passes the A/A run (HEAD against HEAD) and
// fails a head with the issue-scan sleep disabled (cpu.Core.issue
// never sleeps), naming the throughput of both simulating workloads.
// The readings are the per-pair worsenings those two runs printed.
func TestBenchGate(t *testing.T) {
	bm := repoBenchmark(t)
	if failures := mustVerdict(t, bm, fromWorse(bm, aaWorse)); len(failures) != 0 {
		t.Errorf("A/A run failed the gate: %v", failures)
	}
	failures := mustVerdict(t, bm, fromWorse(bm, plantedWorse))
	joined := strings.Join(failures, "\n")
	for _, want := range []string{"steady-sim work_per_cpu_s", "relia-adaptive work_per_cpu_s"} {
		if !strings.Contains(joined, want) {
			t.Errorf("planted regression: failures do not name %s:\n%s", want, joined)
		}
	}
	if strings.Contains(joined, "peak_rss_mb") || strings.Contains(joined, "warm-regen work_per_cpu_s") {
		t.Errorf("planted regression: failures name a metric it did not move:\n%s", joined)
	}
}

// TestVerdictNeedsEveryPair: one pair beyond the bound and one within
// passes; both beyond fails.
func TestVerdictNeedsEveryPair(t *testing.T) {
	bm := mustBenchmark(t, []byte(testBench))
	for _, m := range []string{"work_per_cpu_s", "step_ms_p50"} {
		one := fromWorse(bm, map[string]map[string][pairs]float64{"steady-sim": {m: {30, 10}}})
		if failures := mustVerdict(t, bm, one); len(failures) != 0 {
			t.Errorf("%s: one pair beyond the bound failed the gate: %v", m, failures)
		}
		both := fromWorse(bm, map[string]map[string][pairs]float64{"steady-sim": {m: {30, 40}}})
		if failures := mustVerdict(t, bm, both); len(failures) != 1 || !strings.Contains(failures[0], "steady-sim "+m) {
			t.Errorf("%s: both pairs beyond the bound: %v", m, failures)
		}
	}
}

// TestBenchFloorBoundary: a worsening exactly at the bound passes, in
// both directions of better; just past it fails.
func TestBenchFloorBoundary(t *testing.T) {
	bm := mustBenchmark(t, []byte(testBench))
	run := func(thr, p50 float64) runResult {
		return result(map[string]float64{"work_per_cpu_s": thr, "step_ms_p50": p50})
	}
	base := run(100, 100)
	at := run(75, 125)
	past := run(74.9, 125.1)
	res := measured{"steady-sim": {{base, at}, {base, at}}, "warm-regen": {{base, base}, {base, base}}}
	if failures := mustVerdict(t, bm, res); len(failures) != 0 {
		t.Errorf("worsening exactly at the bound failed the gate: %v", failures)
	}
	res["steady-sim"] = [pairs][2]runResult{{base, past}, {base, past}}
	if failures := mustVerdict(t, bm, res); len(failures) != 2 {
		t.Errorf("worsening past the bound: %v", failures)
	}
}

// TestVerdictCorrectness: a head run with incorrect outputs fails the
// gate, and so does a larger failed share than the parent's; an equal
// or smaller share passes.
func TestVerdictCorrectness(t *testing.T) {
	bm := mustBenchmark(t, []byte(testBench))
	fresh := func() measured { return fromWorse(bm, nil) }

	res := fresh()
	rs := res["warm-regen"]
	rs[1][1].Correct = false
	res["warm-regen"] = rs
	if failures := mustVerdict(t, bm, res); len(failures) != 1 || !strings.Contains(failures[0], "warm-regen: head run at seed 12") {
		t.Errorf("incorrect head run: %v", failures)
	}

	res = fresh()
	rs = res["steady-sim"]
	rs[0][1].Failed = 1
	res["steady-sim"] = rs
	if failures := mustVerdict(t, bm, res); len(failures) != 1 || !strings.Contains(failures[0], "steady-sim: head failed 1 of 20") {
		t.Errorf("larger failed share: %v", failures)
	}

	// The same share on both sides, from different pairs, passes; so
	// does a parent that fails more than the head.
	rs[1][0].Failed = 1
	res["steady-sim"] = rs
	if failures := mustVerdict(t, bm, res); len(failures) != 0 {
		t.Errorf("equal failed share: %v", failures)
	}
	rs[0][0].Failed = 5
	res["steady-sim"] = rs
	if failures := mustVerdict(t, bm, res); len(failures) != 0 {
		t.Errorf("smaller failed share: %v", failures)
	}
}

// TestVerdictMissingMetric: a run that does not report an end-to-end
// metric is an error, not a pass.
func TestVerdictMissingMetric(t *testing.T) {
	bm := mustBenchmark(t, []byte(testBench))
	res := fromWorse(bm, nil)
	rs := res["warm-regen"]
	delete(rs[1][0].Metrics, "step_ms_p50")
	res["warm-regen"] = rs
	if _, _, err := verdict(bm, res); err == nil || !strings.Contains(err.Error(), "parent warm-regen seed 12: no metric step_ms_p50") {
		t.Fatalf("missing metric: %v", err)
	}
}

// aaWorse is what `mmmgate bench HEAD HEAD` printed: each pair's
// worsening in percent, 12 s runs on a 2-vCPU 2.1 GHz Xeon VM.
var aaWorse = map[string]map[string][pairs]float64{
	"steady-sim": {
		"setup_s": {3.9, -1.7}, "work_per_cpu_s": {0.9, -1.5}, "step_ms_p50": {1.8, -1.6},
		"step_ms_tail": {6.9, -8.3}, "peak_rss_mb": {1.8, -0.4},
	},
	"relia-adaptive": {
		"setup_s": {2.2, -1.7}, "work_per_cpu_s": {-0.9, 0.2}, "step_ms_p50": {-1.3, -1.0},
		"step_ms_tail": {2.9, 0.8}, "peak_rss_mb": {7.8, 2.4},
	},
	"warm-regen": {
		"setup_s": {4.9, 0.5}, "work_per_cpu_s": {-5.6, 2.3}, "step_ms_p50": {-2.6, 1.6},
		"step_ms_tail": {-16.1, 7.5}, "peak_rss_mb": {-0.9, -3.7},
	},
}

// plantedWorse is what `mmmgate bench HEAD~1` printed for a head whose
// issue scan never sleeps, on the same VM.
var plantedWorse = map[string]map[string][pairs]float64{
	"steady-sim": {
		"setup_s": {100.3, 98.8}, "work_per_cpu_s": {42.1, 41.2}, "step_ms_p50": {69.1, 73.4},
		"step_ms_tail": {75.3, 83.3}, "peak_rss_mb": {-1.0, -2.2},
	},
	"relia-adaptive": {
		"setup_s": {121.7, 140.6}, "work_per_cpu_s": {55.8, 55.8}, "step_ms_p50": {120.9, 127.6},
		"step_ms_tail": {149.7, 129.3}, "peak_rss_mb": {20.9, 3.9},
	},
	"warm-regen": {
		"setup_s": {104.5, 52.3}, "work_per_cpu_s": {2.0, 1.2}, "step_ms_p50": {1.1, 1.3},
		"step_ms_tail": {1.5, 2.6}, "peak_rss_mb": {5.5, -8.6},
	},
}
