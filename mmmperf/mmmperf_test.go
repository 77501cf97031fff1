package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{1, 50}, {19, 50}, {20, 50}, {40, 75}, {50, 80}, {63, 80}, {90, 80},
		{100, 90}, {199, 90}, {200, 95}, {1000, 99}, {2800, 99}, {10000, 99.9},
	} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
	// The rule itself: the chosen percentile leaves at least ten samples
	// beyond it, and the next higher candidate does not.
	for n := 20; n <= 5000; n++ {
		p := tailPercentile(n)
		if beyond := n - rank(p, n); beyond < 10 {
			t.Fatalf("n=%d: p%v leaves %d samples beyond it", n, p, beyond)
		}
		for _, q := range tailPercentiles {
			if q > p && n-rank(q, n) >= 10 {
				t.Fatalf("n=%d: chose p%v but p%v also leaves ten samples", n, p, q)
			}
		}
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := percentile(xs, 50); got != 3 {
		t.Errorf("p50 = %v, want 3", got)
	}
	if got := percentile(xs, 80); got != 4 {
		t.Errorf("p80 = %v, want 4", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("p50 of nothing = %v, want 0", got)
	}
}

func TestValidName(t *testing.T) {
	for _, s := range []string{"setup_s", "core.run_mcps.mmm-ipc.duty-cycle", "9lives", "host.self_frac.gc"} {
		if !validName(s) {
			t.Errorf("validName(%q) = false, want true", s)
		}
	}
	long := string(bytes.Repeat([]byte("a"), 65))
	for _, s := range []string{"", "_x", ".x", "-x", "a b", "a/b", "a:b", "µs", long} {
		if validName(s) {
			t.Errorf("validName(%q) = true, want false", s)
		}
	}
	seen := make(map[string]bool)
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !validName(d.name) || seen[d.name] {
			t.Errorf("metric %q is invalid or declared twice", d.name)
		}
		seen[d.name] = true
	}
	for name := range workloads {
		if !validName(name) {
			t.Errorf("workload %q is not a valid name", name)
		}
	}
}

// pbKey, pbVarint and pbBytes hand-encode protobuf fields.
func pbKey(b []byte, num, wire int) []byte { return binary.AppendUvarint(b, uint64(num<<3|wire)) }

func pbVarint(b []byte, num int, v uint64) []byte {
	return binary.AppendUvarint(pbKey(b, num, 0), v)
}

func pbBytes(b []byte, num int, data []byte) []byte {
	b = binary.AppendUvarint(pbKey(b, num, 2), uint64(len(data)))
	return append(b, data...)
}

func pbPacked(b []byte, num int, vs ...uint64) []byte {
	var p []byte
	for _, v := range vs {
		p = binary.AppendUvarint(p, v)
	}
	return pbBytes(b, num, p)
}

func TestFoldByLayer(t *testing.T) {
	funcs := []string{
		"repro/internal/cpu.(*Core).Tick",        // 1
		"repro/internal/cache.(*Hierarchy).Load", // 2
		"runtime.mallocgc",                       // 3
		"runtime.gcBgMarkWorker",                 // 4
		"main.main",                              // 5
		"repro/internal/core.(*Chip).Run",        // 6
		"encoding/json.(*decodeState).object",    // 7
		"runtime.memmove",                        // 8
	}
	var prof []byte
	prof = pbBytes(prof, pbProfileStrings, nil)
	for i, name := range funcs {
		var fn []byte
		fn = pbVarint(fn, pbFunctionID, uint64(i+1))
		fn = pbVarint(fn, pbFunctionName, uint64(i+1))
		prof = pbBytes(prof, pbProfileFunction, fn)
		prof = pbBytes(prof, pbProfileStrings, []byte(name))
	}
	// Location i+1 holds function i+1. Location 9 is cache.Load inlined
	// into core.Run: its first line is the innermost function, which
	// owns the self time.
	location := func(id uint64, fns ...uint64) {
		var loc []byte
		loc = pbVarint(loc, pbLocationID, id)
		for _, f := range fns {
			loc = pbBytes(loc, pbLocationLine, pbVarint(nil, pbLineFunction, f))
		}
		prof = pbBytes(prof, pbProfileLocation, loc)
	}
	for i := range funcs {
		location(uint64(i+1), uint64(i+1))
	}
	location(9, 2, 6)
	sample := func(ns uint64, packed bool, locs ...uint64) {
		var s []byte
		if packed {
			s = pbPacked(s, pbSampleLocation, locs...)
		} else {
			for _, l := range locs {
				s = pbVarint(s, pbSampleLocation, l)
			}
		}
		s = pbPacked(s, pbSampleValue, 1, ns)
		prof = pbBytes(prof, pbProfileSample, s)
	}
	sample(400, true, 1, 6, 5)  // cpu, called from core
	sample(100, false, 9, 5)    // inlined cache
	sample(100, true, 3, 1)     // malloc from cpu
	sample(100, true, 4)        // GC worker
	sample(100, true, 5)        // main: no layer
	sample(100, true, 7, 6)     // json
	sample(100, false, 8, 2, 6) // memmove: no layer

	var zipped bytes.Buffer
	zw := gzip.NewWriter(&zipped)
	if _, err := zw.Write(prof); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	for _, data := range [][]byte{prof, zipped.Bytes()} {
		self, total, err := selfByFunction(data)
		if err != nil {
			t.Fatal(err)
		}
		if total != 1000 {
			t.Fatalf("total = %d, want 1000", total)
		}
		got := foldByLayer(self, total)
		want := map[string]float64{"cpu": 0.4, "cache": 0.1, "gc": 0.2, "json": 0.1}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("foldByLayer = %v, want %v", got, want)
		}
	}
	if _, _, err := selfByFunction([]byte{0x12, 0x05, 0x01}); err == nil {
		t.Fatal("truncated profile decoded without error")
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/paging.(*TLB).Lookup":         "paging",
		"repro/internal/campaign.(*Engine).Run.func1": "campaign",
		"repro/internal/mode.DutyCycle.Decide":        "mode",
		"runtime.scanobject":                          "gc",
		"runtime.(*mheap).alloc":                      "gc",
		"runtime.mapaccess1_faststr":                  "",
		"internal/runtime/syscall.Syscall6":           "syscall",
		"repro/mmmperf.main":                          "",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// TestBenchmarkJSON pins BENCHMARK.json at the repository root to the
// metric tables and workloads the program reports.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []map[string]any `json:"end_to_end"`
		PerLayer   []map[string]any `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bench); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bench.Command, []string{"bash", "mmmperf/run.sh"}) ||
		!reflect.DeepEqual(bench.Paths, []string{"mmmperf"}) {
		t.Errorf("command %v, paths %v", bench.Command, bench.Paths)
	}
	var names []string
	for _, w := range bench.Workloads {
		names = append(names, w.Name)
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	var want []string
	for name := range workloads {
		want = append(want, name)
	}
	sort.Strings(names)
	sort.Strings(want)
	if !reflect.DeepEqual(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", names, want)
	}
	check := func(table string, got []map[string]any, defs []metricDef, withBound bool) {
		if len(got) != len(defs) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, program %d", table, len(got), len(defs))
			return
		}
		for i, d := range defs {
			m := map[string]any{"name": d.name, "unit": d.unit, "better": d.better}
			if withBound {
				m["bound"] = d.bound
			}
			if !reflect.DeepEqual(got[i], m) {
				t.Errorf("%s[%d] = %v, want %v", table, i, got[i], m)
			}
		}
	}
	check("end_to_end", bench.EndToEnd, endToEnd, true)
	check("per_layer", bench.PerLayer, perLayer, false)
}

// TestSlicedWindowMatchesRunSystem: steady-sim measures a window one
// timeslice at a time; its first window must be exactly the cell's
// campaign job, a single core.RunSystem measurement.
func TestSlicedWindowMatchesRunSystem(t *testing.T) {
	sc := campaign.QuickScale()
	job := campaign.Job{Workload: "apache", Kind: core.KindMMMIPC, Seed: defaultSeed,
		Knobs: campaign.Knobs{Policy: "duty-cycle"}}
	wl, err := workload.ByName(job.Workload)
	if err != nil {
		t.Fatal(err)
	}
	opts := func() core.Options {
		cfg := sim.DefaultConfig()
		cfg.TimesliceCycles = sc.Timeslice
		return core.Options{Cfg: cfg, Kind: job.Kind, Workload: wl, Seed: job.SimSeed(), Policy: job.Knobs.Policy}
	}
	want, err := core.RunSystem(opts(), sc.Warmup, sc.Measure)
	if err != nil {
		t.Fatal(err)
	}
	chip, err := core.NewSystem(opts())
	if err != nil {
		t.Fatal(err)
	}
	chip.Run(sc.Warmup)
	chip.ResetMeasurement()
	from := chip.Now
	for s := sim.Cycle(0); s < sc.Measure; s += sc.Timeslice {
		chip.Run(sc.Timeslice)
	}
	got := chip.Collect(chip.Now - from)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("sliced window differs from RunSystem:\n got %+v\nwant %+v", got, want)
	}
	if got.EnterN == 0 {
		t.Fatal("duty-cycle cell made no Enter-DMR transitions")
	}
}

func TestSameRows(t *testing.T) {
	rows := []stats.Row{{Key: "apache/NoDMR", Metric: "ipc:app", N: 1, Mean: 0.5, CI95: math.NaN()}}
	same := []stats.Row{rows[0]}
	if !sameRows(rows, same) {
		t.Fatal("identical rows (NaN interval included) compare different")
	}
	other := []stats.Row{rows[0]}
	other[0].Mean = math.Nextafter(0.5, 1)
	if sameRows(rows, other) || sameRows(rows, nil) {
		t.Fatal("different rows compare identical")
	}
}

func TestCPUShares(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(msec int) time.Time { return t0.Add(time.Duration(msec) * time.Millisecond) }
	// Samples every 10 ms; the process uses 20 ms of CPU per 10 ms while
	// two waves overlap and 10 ms while one runs alone.
	s := &cpuSampler{}
	cpu := time.Duration(0)
	for msec := 0; msec <= 40; msec += 10 {
		if msec > 0 {
			if msec <= 20 {
				cpu += 20 * time.Millisecond
			} else {
				cpu += 10 * time.Millisecond
			}
		}
		s.at = append(s.at, at(msec))
		s.cpu = append(s.cpu, cpu)
	}
	got := s.shares([]interval{{at(0), at(20)}, {at(0), at(40)}})
	want := []float64{20, 40} // half of 40 ms, then half of 40 ms plus 20 ms alone
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Fatalf("shares = %v, want %v", got, want)
		}
	}
	if s.total() != 60*time.Millisecond {
		t.Fatalf("total = %v, want 60ms", s.total())
	}
}

// TestCellPercentile: every cell weighs the same however many samples it
// has, so a few slow samples of one cell reach the tail that eight fast
// samples of another would hide when counted per sample.
func TestCellPercentile(t *testing.T) {
	xs := []float64{10, 1, 1, 1, 1, 10, 1, 1, 1, 1}
	cells := []int{1, 0, 0, 0, 0, 1, 0, 0, 0, 0}
	if got := percentile(append([]float64(nil), xs...), 80); got != 1 {
		t.Fatalf("per-sample p80 = %v, want 1", got)
	}
	for _, tc := range []struct{ p, want float64 }{{50, 1}, {80, 10}, {100, 10}, {1, 1}} {
		if got := cellPercentile(xs, cells, tc.p); got != tc.want {
			t.Errorf("cellPercentile(p%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := cellPercentile(nil, nil, 80); got != 0 {
		t.Errorf("cellPercentile of nothing = %v, want 0", got)
	}
}

// TestWaveCells: only completed waves map to cells, in journal order.
func TestWaveCells(t *testing.T) {
	events := []campaign.Event{
		{Type: campaign.EventExpanded, Cell: -1},
		{Type: campaign.EventStarted, Cell: 2},
		{Type: campaign.EventCompleted, Cell: 2},
		{Type: campaign.EventCompleted, Cell: 0},
		{Type: campaign.EventMerged, Cell: 0},
		{Type: campaign.EventCompleted, Cell: 2},
	}
	if got := waveCells(events); !reflect.DeepEqual(got, []int{2, 0, 2}) {
		t.Errorf("waveCells = %v, want [2 0 2]", got)
	}
}

// TestCalibratorFactor: a host time's factor is the reference chunk time
// over the median of the calibNeighbours chunks around it, the window
// clamped at the ends of the run.
func TestCalibratorFactor(t *testing.T) {
	var c calibrator
	if c.factorAt(time.Now()) != 1 || c.factor() != 1 {
		t.Fatal("a calibrator without chunks must not scale")
	}
	t0 := time.Unix(1000, 0)
	// The host halves its speed after the fifth chunk.
	for i, x := range []float64{1, 1, 1, 1, 1, 2, 2, 2, 2, 2} {
		c.at = append(c.at, t0.Add(time.Duration(i)*time.Second))
		c.cost = append(c.cost, x*calibRefSeconds)
	}
	for _, tc := range []struct {
		at   time.Duration
		want float64
	}{
		{-time.Hour, 1},                // before the first chunk: chunks 0-4
		{3 * time.Second, 1},           // chunks 1-5
		{4500 * time.Millisecond, 0.5}, // chunks 3-7
		{9 * time.Second, 0.5},         // chunks 5-9
		{time.Hour, 0.5},               // after the last chunk: chunks 5-9
	} {
		if got := c.factorAt(t0.Add(tc.at)); got != tc.want {
			t.Errorf("factorAt(+%v) = %v, want %v", tc.at, got, tc.want)
		}
	}
	if got := c.factor(); got != 1 {
		t.Errorf("factor() = %v, want 1 (nearest-rank median of the run)", got)
	}
}

// TestCalibrationSample: a chunk is timed on its own thread and adds to
// the CPU time the calibration spent; the kernel allocates nothing, so it
// cannot trigger a collection that the workload would then pay for.
func TestCalibrationSample(t *testing.T) {
	var c calibrator
	c.sample()
	if len(c.cost) != 1 || c.cost[0] <= 0 || c.spent.Seconds() != c.cost[0] {
		t.Fatalf("one chunk recorded cost %v, spent %v", c.cost, c.spent)
	}
	if n := testing.AllocsPerRun(3, func() { calibKernel(1000) }); n != 0 {
		t.Errorf("calibKernel allocates %v times per run", n)
	}
}
