package main

// mmmgate bench is the CI hot-path regression gate: it parses `go test
// -bench` output for BenchmarkHotPath, takes each kind × workload ×
// seed cell's median cycles/sec across repeated runs, and fails when
// any cell recorded in the latest BENCH_hotpath.json entry regressed
// more than tolerance below its recorded median, or did not run. The
// fresh per-cell numbers are written as JSON, in the shape of a
// baseline entry, so CI can upload them as a build artifact and a
// human can refresh the baseline from them.
//
//	go test -run=NONE -bench='BenchmarkHotPath$' -benchtime=1s -count=3 . | tee bench.txt
//	mmmgate bench -baseline BENCH_hotpath.json -bench bench.txt -out bench-fresh.json
//
// With -update, the gate instead appends a fresh baseline entry to the
// file from the same bench output, so gating a new bench kind or cell
// (which goes ungated until an entry records it) is a one-command
// baseline refresh:
//
//	go test -run=NONE -bench='BenchmarkHotPath$' -benchtime=1s -count=3 . | \
//	    mmmgate bench -update -pr N -change "<one-line summary>" -baseline BENCH_hotpath.json
//
// An entry records per-cell statistics only. Older entries also carry
// per-kind after/before/speedup figures; the gate ignores them, since
// they compared numbers recorded on different machines.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"regexp"
	"sort"
	"strconv"
	"time"
)

// tolerance is the fractional drop below a recorded cell median that
// fails the gate. It still absorbs run-to-run noise (CI hardware is
// noisy and slower than the recording machine), but with per-cell
// medians and each cell's coefficient of variation printed next to
// them, a wide spread is distinguishable from a shifted median, so the
// gate can afford 20% (down from the original 35%): it catches a lost
// fast path or an accidentally quadratic hot loop without tripping on
// jitter.
const tolerance = 0.20

// baselineFile mirrors the BENCH_hotpath.json schema. The header
// fields ride along so -update rewrites the file without dropping
// them; entries stay raw so historical records round-trip untouched.
type baselineFile struct {
	Comment   string            `json:"comment,omitempty"`
	Benchmark string            `json:"benchmark"`
	Metric    string            `json:"metric"`
	Benchtime string            `json:"benchtime,omitempty"`
	Workload  string            `json:"workload,omitempty"`
	Seed      int               `json:"seed,omitempty"`
	CPU       string            `json:"cpu,omitempty"`
	Entries   []json.RawMessage `json:"entries"`
}

// entry is one record of the baseline file: what -update appends and
// -out writes, and the view of the latest record the gate reads.
type entry struct {
	PR           int                  `json:"pr"`
	Date         string               `json:"date"`
	Change       string               `json:"change,omitempty"`
	CyclesPerSec map[string]kindCells `json:"cycles_per_sec"`
}

// kindCells is one kind's record: the statistics of each workload×seed
// cell, keyed "<workload>/s<seed>".
type kindCells struct {
	Cells map[string]cellStat `json:"cells"`
}

// cellStat is the min/median/max of one workload×seed cell's samples,
// with the coefficient of variation (stddev/mean) quantifying the
// run-to-run noise behind the median. The min..max spread is recorded
// next to the median so a noisy box (wide spread) is distinguishable
// from a real regression (shifted median).
type cellStat struct {
	Median float64 `json:"median"`
	Min    float64 `json:"min,omitempty"`
	Max    float64 `json:"max,omitempty"`
	CV     float64 `json:"cv,omitempty"`
}

// cellStatOf summarizes one cell's samples; the median is the middle
// sample (lower-middle for even counts).
func cellStatOf(samples []float64) cellStat {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return cellStat{Median: s[(len(s)-1)/2], Min: s[0], Max: s[len(s)-1], CV: cv(s)}
}

// benchLine matches one sub-benchmark result line, e.g.
//
//	BenchmarkHotPath/MMM-IPC/apache/s11-4   123   9270000 ns/op   944490 cycles/sec
//
// capturing the kind ("MMM-IPC"), the workload×seed cell
// ("apache/s11"; the trailing -N is the GOMAXPROCS suffix, omitted when
// GOMAXPROCS=1) and the cycles/sec value. A line without a cell is not
// a BenchmarkHotPath result and is skipped.
var benchLine = regexp.MustCompile(`^BenchmarkHotPath/([^/\s]+)/([^/\s]+/s\d+)(?:-\d+)?\s.*?([0-9.e+]+) cycles/sec`)

// parseBench collects every cell's cycles/sec samples from go test
// -bench output, indexed by kind, then cell (repeated runs via -count
// yield repeated samples).
func parseBench(r io.Reader) (map[string]map[string][]float64, error) {
	out := make(map[string]map[string][]float64)
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		v, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			return nil, fmt.Errorf("bad cycles/sec in %q: %w", sc.Text(), err)
		}
		if out[m[1]] == nil {
			out[m[1]] = make(map[string][]float64)
		}
		out[m[1]][m[2]] = append(out[m[1]][m[2]], v)
	}
	return out, sc.Err()
}

// cv returns the coefficient of variation (population stddev divided by
// mean) of the samples — the dimensionless noise figure recorded next
// to every median. Zero for fewer than two samples or a non-positive
// mean. Rounded to four decimals so baseline files stay readable.
func cv(samples []float64) float64 {
	if len(samples) < 2 {
		return 0
	}
	var sum float64
	for _, v := range samples {
		sum += v
	}
	mean := sum / float64(len(samples))
	if mean <= 0 {
		return 0
	}
	var ss float64
	for _, v := range samples {
		d := v - mean
		ss += d * d
	}
	return math.Round(math.Sqrt(ss/float64(len(samples)))/mean*1e4) / 1e4
}

// summarize turns parsed samples into per-kind cell statistics, the
// shape both the gate artifact and an appended baseline entry record.
func summarize(fresh map[string]map[string][]float64) map[string]kindCells {
	out := make(map[string]kindCells, len(fresh))
	for k, cells := range fresh {
		kc := kindCells{Cells: make(map[string]cellStat, len(cells))}
		for c, ss := range cells {
			kc.Cells[c] = cellStatOf(ss)
		}
		out[k] = kc
	}
	return out
}

// gate compares every cell the baseline entry records against the
// fresh median of the same cell, returning one line per regression and
// the number of cells compared. A recorded cell with no fresh samples
// is itself a failure: a benchmark that silently stopped running must
// not pass.
func gate(baseline, fresh map[string]kindCells) (regressions []string, checked int) {
	for _, k := range sortedKeys(baseline) {
		cells := baseline[k].Cells
		for _, c := range sortedKeys(cells) {
			checked++
			base := cells[c].Median
			fc, ok := fresh[k].Cells[c]
			if !ok {
				regressions = append(regressions,
					fmt.Sprintf("%s/%s: no samples (cell did not run)", k, c))
				continue
			}
			if m := fc.Median; base > 0 && m < base*(1-tolerance) {
				regressions = append(regressions, fmt.Sprintf(
					"%s/%s: median %.0f cycles/sec vs baseline %.0f (%.0f%% of baseline, floor %.0f%%)",
					k, c, m, base, 100*m/base, 100*(1-tolerance)))
			}
		}
	}
	return regressions, checked
}

// buildUpdateEntry records fresh cell statistics as a new baseline
// entry.
func buildUpdateEntry(fresh map[string]kindCells, pr int, date, change string) (json.RawMessage, error) {
	if len(fresh) == 0 {
		return nil, fmt.Errorf("bench output contains no BenchmarkHotPath samples")
	}
	return marshalPlain(entry{PR: pr, Date: date, Change: change, CyclesPerSec: fresh}, "")
}

// marshalPlain marshals without HTML escaping — the baseline file is
// read by maintainers, and its comment/change strings legitimately
// contain <, > and & (shell recipes) that must not turn into <.
func marshalPlain(v any, indent string) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if indent != "" {
		enc.SetIndent("", indent)
	}
	if err := enc.Encode(v); err != nil {
		return nil, err
	}
	return bytes.TrimRight(buf.Bytes(), "\n"), nil
}

// sortedKeys returns a map's keys in sorted order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func benchMain(args []string) {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	var (
		baselinePath = fs.String("baseline", "BENCH_hotpath.json", "recorded baseline file")
		benchPath    = fs.String("bench", "-", "go test -bench output ('-' = stdin)")
		outPath      = fs.String("out", "", "write fresh numbers + verdict as JSON here")
		update       = fs.Bool("update", false, "append a fresh baseline entry instead of gating")
		pr           = fs.Int("pr", 0, "PR number recorded in the appended entry (-update)")
		change       = fs.String("change", "", "one-line change description for the appended entry (-update)")
	)
	_ = fs.Parse(args) // ExitOnError: Parse exits on a bad flag

	data, err := os.ReadFile(*baselinePath)
	if err != nil {
		exit(2, "bench: %v", err)
	}
	var bf baselineFile
	if err := json.Unmarshal(data, &bf); err != nil {
		exit(2, "bench: parse %s: %v", *baselinePath, err)
	}

	in, err := openInput(*benchPath)
	if err != nil {
		exit(2, "bench: %v", err)
	}
	samples, err := parseBench(in)
	in.Close()
	if err != nil {
		exit(2, "bench: %v", err)
	}
	fresh := summarize(samples)
	today := time.Now().Format("2006-01-02")

	if *update {
		raw, err := buildUpdateEntry(fresh, *pr, today, *change)
		if err != nil {
			exit(2, "bench: %v", err)
		}
		bf.Entries = append(bf.Entries, raw)
		writeJSONFile(*baselinePath, &bf)
		fmt.Printf("mmmgate bench: appended entry pr=%d with %d kinds to %s\n",
			*pr, len(fresh), *baselinePath)
		return
	}

	if len(bf.Entries) == 0 {
		exit(2, "bench: %s has no entries", *baselinePath)
	}
	var latest entry
	if err := json.Unmarshal(bf.Entries[len(bf.Entries)-1], &latest); err != nil {
		exit(2, "bench: %s: latest entry: %v", *baselinePath, err)
	}
	regressions, checked := gate(latest.CyclesPerSec, fresh)
	if checked == 0 {
		exit(2, "bench: the latest entry of %s records no cells to gate", *baselinePath)
	}
	if *outPath != "" {
		writeJSONFile(*outPath, entry{Date: today, CyclesPerSec: fresh})
	}
	for _, k := range sortedKeys(fresh) {
		cells := fresh[k].Cells
		for _, c := range sortedKeys(cells) {
			cs := cells[c]
			fmt.Printf("mmmgate bench: %-32s median %12.0f  [%.0f..%.0f]  cv %.3f  baseline %12.0f\n",
				k+"/"+c, cs.Median, cs.Min, cs.Max, cs.CV, latest.CyclesPerSec[k].Cells[c].Median)
		}
	}
	if len(regressions) > 0 {
		for _, r := range regressions {
			fmt.Fprintf(os.Stderr, "mmmgate bench: REGRESSION %s\n", r)
		}
		os.Exit(1)
	}
	fmt.Printf("mmmgate bench: ok (%d cells within %.0f%% of baseline)\n",
		checked, 100*tolerance)
}

// writeJSONFile writes v to path as indented JSON without HTML
// escaping.
func writeJSONFile(path string, v any) {
	out, err := marshalPlain(v, "  ")
	if err == nil {
		err = os.WriteFile(path, append(out, '\n'), 0o644)
	}
	if err != nil {
		exit(2, "bench: %v", err)
	}
}
