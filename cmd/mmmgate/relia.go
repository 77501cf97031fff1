package main

// mmmgate relia is the nightly fixed-vs-adaptive gate: it compares a
// fixed-batch reliability run against an adaptive (sequential
// stopping) run at the same target precision and fails unless the
// adaptive run simulated at least minSavings fewer trials AND every
// (mode, rate) row's coverage intervals overlap between the two — the
// savings did not move the answer.
//
//	mmmbench -exp relia -quick -trials 384     | tee fixed.txt
//	mmmbench -exp relia -quick -halfwidth 0.05 | tee adaptive.txt
//	mmmgate relia -fixed fixed.txt -adaptive adaptive.txt
//
// Everything is read from the printed reliability tables: each row's
// trials column (summed into the run's total) and the `[lo,hi]` tokens
// of its result- and TLB-coverage columns.

import (
	"flag"
	"fmt"
	"os"
	"regexp"
	"strconv"
	"strings"
)

// minSavings is the fraction of the fixed run's trials the adaptive run
// must save.
const minSavings = 0.30

// interval is one 95% Wilson interval parsed from a table cell.
type interval struct{ lo, hi float64 }

func (a interval) overlaps(b interval) bool { return a.lo <= b.hi && b.lo <= a.hi }

// row is one (mode, rate) line of the reliability table: the result-
// and TLB-coverage intervals, in column order.
type row struct{ result, tlb interval }

// reliaTable is one run's parsed reliability table.
type reliaTable struct {
	rows   map[string]row // keyed "<mode>@<rate>"
	trials int            // sum of the rows' trials column
}

var intervalRE = regexp.MustCompile(`\[(\d+\.\d+),(\d+\.\d+)\]`)

// parseTable extracts the rows and the trial total from mmmbench -exp
// relia text output, recognizing rows by their interval tokens. The
// first three columns are mode, rate and trials.
func parseTable(text string) (reliaTable, error) {
	t := reliaTable{rows: map[string]row{}}
	for _, line := range strings.Split(text, "\n") {
		m := intervalRE.FindAllStringSubmatch(line, -1)
		if len(m) < 2 {
			continue // header, rule or non-table line
		}
		fields := strings.Fields(line)
		if len(fields) < 3 {
			continue
		}
		key := fields[0] + "@" + fields[1]
		n, err := strconv.Atoi(fields[2])
		if err != nil || n < 0 {
			return t, fmt.Errorf("bad trials count %q in row %q", fields[2], key)
		}
		var iv [2]interval
		for i := 0; i < 2; i++ {
			lo, err1 := strconv.ParseFloat(m[i][1], 64)
			hi, err2 := strconv.ParseFloat(m[i][2], 64)
			if err1 != nil || err2 != nil || lo > hi {
				return t, fmt.Errorf("bad interval %q in row %q", m[i][0], key)
			}
			iv[i] = interval{lo, hi}
		}
		if _, dup := t.rows[key]; dup {
			return t, fmt.Errorf("duplicate row %q", key)
		}
		t.rows[key] = row{result: iv[0], tlb: iv[1]}
		t.trials += n
	}
	if len(t.rows) == 0 {
		return t, fmt.Errorf("no table rows found")
	}
	return t, nil
}

// compare is the gate proper, factored out of main for testing. It
// returns the findings as error text (nil = gate passes) plus the
// human summary line.
func compare(fixed, adaptive reliaTable) (string, error) {
	if len(fixed.rows) != len(adaptive.rows) {
		return "", fmt.Errorf("row mismatch: fixed has %d rows, adaptive %d", len(fixed.rows), len(adaptive.rows))
	}
	for key, f := range fixed.rows {
		a, ok := adaptive.rows[key]
		if !ok {
			return "", fmt.Errorf("row %q missing from adaptive table", key)
		}
		if !f.result.overlaps(a.result) {
			return "", fmt.Errorf("row %q result-coverage intervals disjoint: fixed [%g,%g] vs adaptive [%g,%g]",
				key, f.result.lo, f.result.hi, a.result.lo, a.result.hi)
		}
		if !f.tlb.overlaps(a.tlb) {
			return "", fmt.Errorf("row %q tlb-coverage intervals disjoint: fixed [%g,%g] vs adaptive [%g,%g]",
				key, f.tlb.lo, f.tlb.hi, a.tlb.lo, a.tlb.hi)
		}
	}
	if fixed.trials <= 0 || adaptive.trials <= 0 {
		return "", fmt.Errorf("non-positive trial counts: fixed %d, adaptive %d", fixed.trials, adaptive.trials)
	}
	savings := 1 - float64(adaptive.trials)/float64(fixed.trials)
	if savings < minSavings {
		return "", fmt.Errorf("adaptive saved only %.1f%% of trials (%d vs %d fixed), gate requires >= %.1f%%",
			100*savings, adaptive.trials, fixed.trials, 100*minSavings)
	}
	return fmt.Sprintf("mmmgate relia: OK — %d rows agree; adaptive %d trials vs fixed %d (%.1f%% saved)",
		len(fixed.rows), adaptive.trials, fixed.trials, 100*savings), nil
}

func reliaMain(args []string) {
	fs := flag.NewFlagSet("relia", flag.ExitOnError)
	var (
		fixedPath    = fs.String("fixed", "", "fixed-batch mmmbench -exp relia text output")
		adaptivePath = fs.String("adaptive", "", "adaptive mmmbench -exp relia text output")
	)
	_ = fs.Parse(args) // ExitOnError: Parse exits on a bad flag

	read := func(which, path string) reliaTable {
		data, err := os.ReadFile(path)
		if err != nil {
			exit(2, "relia: %v", err)
		}
		t, err := parseTable(string(data))
		if err != nil {
			exit(2, "relia: %s table %s: %v", which, path, err)
		}
		return t
	}
	fixed, adaptive := read("fixed", *fixedPath), read("adaptive", *adaptivePath)
	summary, err := compare(fixed, adaptive)
	if err != nil {
		exit(1, "relia: FAIL — %v", err)
	}
	fmt.Println(summary)
}
