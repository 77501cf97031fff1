package main

import (
	"encoding/json"
	"strings"
	"testing"
)

// benchFixture is real-shaped `go test -bench -count=3` output from
// the multi-cell suite: three samples per kind at apache/s11, an extra
// workload/seed cell, kind names containing dashes, plus noise lines
// the parser must skip.
const benchFixture = `goos: linux
goarch: amd64
pkg: repro
cpu: Intel(R) Xeon(R) Processor @ 2.70GHz
BenchmarkHotPath/NoDMR/apache/s11-4         	     100	  10000000 ns/op	   1600000 cycles/sec
BenchmarkHotPath/NoDMR/apache/s11-4         	     100	  10000000 ns/op	   1500000 cycles/sec
BenchmarkHotPath/NoDMR/apache/s11-4         	     100	  10000000 ns/op	   1700000 cycles/sec
BenchmarkHotPath/NoDMR/oltp/s12             	     100	  10000000 ns/op	   2000000 cycles/sec
BenchmarkHotPath/MMM-IPC/apache/s11-4      	     100	  10000000 ns/op	   1000000 cycles/sec
BenchmarkHotPath/MMM-IPC/apache/s11-4      	     100	  10000000 ns/op	    900000 cycles/sec
BenchmarkHotPath/MMM-IPC/apache/s11-4      	     100	  10000000 ns/op	    950000 cycles/sec
BenchmarkHotPathTick/NoDMR-4    	     100	  10000000 ns/op	    500000 cycles/sec
PASS
ok  	repro	1.0s
`

func parseFixture(t *testing.T, text string) map[string]map[string][]float64 {
	t.Helper()
	fresh, err := parseBench(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	return fresh
}

// cells builds a baseline kind record from cell medians.
func cells(medians map[string]float64) kindCells {
	kc := kindCells{Cells: map[string]cellStat{}}
	for c, m := range medians {
		kc.Cells[c] = cellStat{Median: m}
	}
	return kc
}

func TestParseBench(t *testing.T) {
	fresh := parseFixture(t, benchFixture)
	if len(fresh) != 2 {
		t.Fatalf("parsed kinds %v, want NoDMR and MMM-IPC", fresh)
	}
	if got := fresh["NoDMR"]["apache/s11"]; len(got) != 3 || got[0] != 1600000 {
		t.Fatalf("NoDMR apache/s11 samples: %v", got)
	}
	// GOMAXPROCS=1 output carries no -N suffix.
	if got := fresh["NoDMR"]["oltp/s12"]; len(got) != 1 || got[0] != 2000000 {
		t.Fatalf("NoDMR oltp/s12 samples: %v", got)
	}
	// Dashed kind names must survive the GOMAXPROCS-suffix strip.
	if got := fresh["MMM-IPC"]["apache/s11"]; len(got) != 3 || got[1] != 900000 {
		t.Fatalf("MMM-IPC samples: %v", got)
	}
}

// TestParseBenchIgnoresBareKind: a line naming a kind but no
// workload×seed cell is not a cell result; it is skipped rather than
// folded into apache/s11.
func TestParseBenchIgnoresBareKind(t *testing.T) {
	fresh := parseFixture(t, benchFixture+
		"BenchmarkHotPath/SingleOS       \t       1\t  10000000 ns/op\t   4000000 cycles/sec\n"+
		"BenchmarkHotPath/NoDMR-4        \t       1\t  10000000 ns/op\t   9000000 cycles/sec\n")
	if _, ok := fresh["SingleOS"]; ok {
		t.Fatalf("bare-kind line parsed as a cell: %v", fresh["SingleOS"])
	}
	if got := fresh["NoDMR"]["apache/s11"]; len(got) != 3 {
		t.Fatalf("bare-kind line folded into apache/s11: %v", got)
	}
}

func TestMedian(t *testing.T) {
	if got := cellStatOf([]float64{3, 1, 2}).Median; got != 2 {
		t.Fatalf("median of odd count: %v", got)
	}
	if got := cellStatOf([]float64{4, 1, 3, 2}).Median; got != 2 {
		t.Fatalf("median of even count (lower middle): %v", got)
	}
	if got := cellStatOf([]float64{7}).Median; got != 7 {
		t.Fatalf("median of one: %v", got)
	}
}

func TestSpread(t *testing.T) {
	samples := []float64{3, 1, 2}
	if cs := cellStatOf(samples); cs.Min != 1 || cs.Max != 3 {
		t.Fatalf("spread = [%v..%v], want [1..3]", cs.Min, cs.Max)
	}
	if samples[0] != 3 || samples[1] != 1 {
		t.Fatalf("cellStatOf reordered its input: %v", samples)
	}
	if cs := cellStatOf([]float64{7}); cs.Min != 7 || cs.Max != 7 {
		t.Fatalf("spread of one = [%v..%v], want [7..7]", cs.Min, cs.Max)
	}
}

// TestCV: the coefficient of variation is population stddev over mean,
// rounded to four decimals, and zero when it cannot be estimated (one
// sample, constant samples, non-positive mean).
func TestCV(t *testing.T) {
	if got := cv([]float64{100}); got != 0 {
		t.Errorf("cv of one sample = %v, want 0", got)
	}
	if got := cv([]float64{7, 7, 7}); got != 0 {
		t.Errorf("cv of constant samples = %v, want 0", got)
	}
	// mean 100, deviations ±10 -> population stddev 10 -> cv 0.1
	if got := cv([]float64{90, 110}); got != 0.1 {
		t.Errorf("cv(90, 110) = %v, want 0.1", got)
	}
	if got := cv([]float64{0, 0}); got != 0 {
		t.Errorf("cv of zero-mean samples = %v, want 0", got)
	}
	// Rounding: 900/1000/1100 -> stddev 81.65 -> cv 0.0816 (4 decimals).
	if got := cv([]float64{900, 1000, 1100}); got != 0.0816 {
		t.Errorf("cv(900,1000,1100) = %v, want 0.0816", got)
	}
}

// TestBenchFloorBoundary: the gate fails strictly below
// baseline*(1-tolerance); a median exactly at the 80% floor passes.
func TestBenchFloorBoundary(t *testing.T) {
	baseline := map[string]kindCells{"A": cells(map[string]float64{"apache/s11": 1000})}
	at := map[string]map[string][]float64{"A": {"apache/s11": {800}}}
	if regs, n := gate(baseline, summarize(at)); len(regs) != 0 || n != 1 {
		t.Errorf("median exactly at the 20%% floor flagged: %v (%d cells)", regs, n)
	}
	below := map[string]map[string][]float64{"A": {"apache/s11": {799}}}
	if regs, _ := gate(baseline, summarize(below)); len(regs) != 1 {
		t.Errorf("median below the floor not flagged: %v", regs)
	}
}

// TestBenchRecordsCV: the fresh cell statistics, which the -out
// artifact and an appended baseline entry both record, carry the
// coefficient of variation next to every median.
func TestBenchRecordsCV(t *testing.T) {
	fresh := map[string]map[string][]float64{"A": {
		"apache/s11": {90, 110},
		"oltp/s12":   {90, 110},
	}}
	raw, err := buildUpdateEntry(summarize(fresh), 10, "2026-08-07", "")
	if err != nil {
		t.Fatal(err)
	}
	var e entry
	if err := json.Unmarshal(raw, &e); err != nil {
		t.Fatal(err)
	}
	for _, c := range []string{"apache/s11", "oltp/s12"} {
		if cs := e.CyclesPerSec["A"].Cells[c]; cs.CV != 0.1 {
			t.Errorf("entry %s CV = %v, want 0.1", c, cs.CV)
		}
	}
}

func TestBenchGate(t *testing.T) {
	fresh := summarize(parseFixture(t, benchFixture))
	baseline := map[string]kindCells{
		"NoDMR":   cells(map[string]float64{"apache/s11": 1624690, "oltp/s12": 2000000}),
		"MMM-IPC": cells(map[string]float64{"apache/s11": 1034722}),
	}

	// Medians 1600000, 2000000 and 950000 are ~0.98x, 1.0x and ~0.92x
	// of baseline: inside the 20% tolerance.
	if regs, n := gate(baseline, fresh); len(regs) != 0 || n != 3 {
		t.Fatalf("within tolerance but flagged: %v (%d cells)", regs, n)
	}
	// The fresh statistics record the per-cell run-to-run spread next
	// to the median, so a noisy box is distinguishable from a shifted
	// median.
	if cs := fresh["NoDMR"].Cells["apache/s11"]; cs.Median != 1600000 || cs.Min != 1500000 || cs.Max != 1700000 {
		t.Fatalf("NoDMR apache/s11 stats: %+v", cs)
	}
	if cs := fresh["MMM-IPC"].Cells["apache/s11"]; cs.Min != 900000 || cs.Max != 1000000 {
		t.Fatalf("MMM-IPC spread: %+v", cs)
	}

	// A higher recorded median turns the slower kind into a regression.
	baseline["MMM-IPC"] = cells(map[string]float64{"apache/s11": 1200000})
	if regs, _ := gate(baseline, fresh); len(regs) != 1 || !strings.Contains(regs[0], "MMM-IPC/apache/s11") {
		t.Fatalf("regressed cell not flagged: %v", regs)
	}
	baseline["MMM-IPC"] = cells(map[string]float64{"apache/s11": 1034722})

	// A baseline kind with no fresh samples is itself a failure — the
	// gate must not silently pass when a benchmark stops running.
	baseline["Reunion"] = cells(map[string]float64{"apache/s11": 1000000})
	if regs, _ := gate(baseline, fresh); len(regs) != 1 || !strings.Contains(regs[0], "Reunion/apache/s11") {
		t.Fatalf("missing kind not flagged: %v", regs)
	}
	delete(baseline, "Reunion")

	// A regression confined to one cell fails even when the kind's
	// other cells are healthy, and a cell that stopped running fails
	// too.
	baseline["NoDMR"] = cells(map[string]float64{
		"apache/s11": 1624690,
		"oltp/s12":   4000000, // fresh median 2000000: 50% drop
	})
	if regs, _ := gate(baseline, fresh); len(regs) != 1 || !strings.Contains(regs[0], "NoDMR/oltp/s12") {
		t.Fatalf("per-cell regression not flagged: %v", regs)
	}
	baseline["NoDMR"] = cells(map[string]float64{"oltp/s13": 2000000})
	if regs, _ := gate(baseline, fresh); len(regs) != 1 || !strings.Contains(regs[0], "NoDMR/oltp/s13") {
		t.Fatalf("missing cell not flagged: %v", regs)
	}
}

func TestBuildUpdateEntry(t *testing.T) {
	fresh := summarize(parseFixture(t, benchFixture))
	raw, err := buildUpdateEntry(fresh, 5, "2026-07-29", "test change")
	if err != nil {
		t.Fatal(err)
	}
	var kinds struct {
		CyclesPerSec map[string]json.RawMessage `json:"cycles_per_sec"`
	}
	if err := json.Unmarshal(raw, &kinds); err != nil {
		t.Fatal(err)
	}
	// A kind records its cells and nothing else: no per-kind figures.
	if got := string(kinds.CyclesPerSec["MMM-IPC"]); strings.Contains(got, "after") || !strings.HasPrefix(got, `{"cells":`) {
		t.Fatalf("MMM-IPC record: %s", got)
	}

	var e entry
	if err := json.Unmarshal(raw, &e); err != nil {
		t.Fatal(err)
	}
	if e.PR != 5 || e.Date != "2026-07-29" || e.Change != "test change" {
		t.Fatalf("header: %+v", e)
	}
	// Every cell records the spread behind its median.
	nd := e.CyclesPerSec["NoDMR"].Cells
	if cs := nd["apache/s11"]; cs.Median != 1600000 || cs.Min != 1500000 || cs.Max != 1700000 {
		t.Fatalf("NoDMR apache/s11 in entry: %+v", cs)
	}
	if cs := nd["oltp/s12"]; cs.Median != 2000000 || cs.Min != 2000000 || cs.Max != 2000000 {
		t.Fatalf("NoDMR oltp/s12 in entry: %+v", cs)
	}

	// The gate accepts the appended entry as its new baseline: every
	// recorded cell gates its own samples.
	if regs, n := gate(e.CyclesPerSec, fresh); len(regs) != 0 || n != 3 {
		t.Fatalf("fresh entry gates its own samples: %v (%d cells)", regs, n)
	}
	// No samples at all is an error, not an empty entry.
	if _, err := buildUpdateEntry(nil, 5, "2026-07-29", ""); err == nil {
		t.Fatal("empty samples accepted")
	}
}
