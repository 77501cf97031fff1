package main

import (
	"strings"
	"testing"
)

// fixedTable / adaptiveTable are abbreviated mmmbench -exp relia
// outputs: same rows, compatible intervals, adaptive narrower. Their
// trials columns sum to 2304 and 728.
const fixedTable = `mode         rate   trials  faults  result(cov)          tlb(cov)
-----------  -----  ------  ------  -------------------  -------------------
performance  25000  768     392     0.000 [0.000,0.026]  0.115 [0.054,0.230]
dmr          25000  768     420     1.000 [0.983,1.000]  0.948 [0.885,0.978]
mixed        25000  768     408     0.776 [0.748,0.802]  0.772 [0.701,0.831]

[relia completed in 1s]
`

const adaptiveTable = `mode         rate   trials  faults  result(cov)          tlb(cov)
-----------  -----  ------  ------  -------------------  -------------------
performance  25000  120     61      0.000 [0.000,0.048]  0.120 [0.050,0.260]
dmr          25000  96      52      1.000 [0.963,1.000]  0.940 [0.870,0.980]
mixed        25000  512     271     0.780 [0.741,0.815]  0.765 [0.690,0.829]
`

func mustParse(t *testing.T, text string) reliaTable {
	t.Helper()
	tb, err := parseTable(text)
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

// TestReliaTrialsFromTable: the trial totals are the sums of the
// tables' trials column.
func TestReliaTrialsFromTable(t *testing.T) {
	if got := mustParse(t, fixedTable).trials; got != 2304 {
		t.Errorf("fixed trials = %d, want 2304", got)
	}
	if got := mustParse(t, adaptiveTable).trials; got != 728 {
		t.Errorf("adaptive trials = %d, want 728", got)
	}
	bad := strings.Replace(adaptiveTable, "96 ", "x6 ", 1)
	if _, err := parseTable(bad); err == nil || !strings.Contains(err.Error(), "bad trials count") {
		t.Errorf("non-numeric trials column: %v", err)
	}
}

func TestReliaPasses(t *testing.T) {
	summary, err := compare(mustParse(t, fixedTable), mustParse(t, adaptiveTable))
	if err != nil {
		t.Fatalf("gate failed on agreeing runs: %v", err)
	}
	if !strings.Contains(summary, "3 rows") || !strings.Contains(summary, "adaptive 728 trials vs fixed 2304") ||
		!strings.Contains(summary, "68.4% saved") {
		t.Fatalf("summary %q", summary)
	}
}

func TestReliaRejectsInsufficientSavings(t *testing.T) {
	// 120 + 96 + 1784 = 2000 adaptive trials: 13.2% saved.
	costly := strings.Replace(adaptiveTable, "512 ", "1784", 1)
	_, err := compare(mustParse(t, fixedTable), mustParse(t, costly))
	if err == nil || !strings.Contains(err.Error(), "13.2%") {
		t.Fatalf("err = %v, want savings complaint", err)
	}
}

func TestReliaRejectsDisjointIntervals(t *testing.T) {
	moved := strings.Replace(adaptiveTable, "0.780 [0.741,0.815]", "0.300 [0.262,0.341]", 1)
	_, err := compare(mustParse(t, fixedTable), mustParse(t, moved))
	if err == nil || !strings.Contains(err.Error(), "mixed@25000") ||
		!strings.Contains(err.Error(), "disjoint") {
		t.Fatalf("err = %v, want disjoint-interval complaint for mixed@25000", err)
	}
}

func TestReliaRejectsRowMismatch(t *testing.T) {
	lines := strings.SplitN(adaptiveTable, "\n", -1)
	short := strings.Join(lines[:4], "\n") // drops the mixed row
	_, err := compare(mustParse(t, fixedTable), mustParse(t, short))
	if err == nil || !strings.Contains(err.Error(), "row mismatch") {
		t.Fatalf("err = %v, want row-count complaint", err)
	}
}

func TestParseTableRejectsGarbage(t *testing.T) {
	if _, err := parseTable("no intervals anywhere\n"); err == nil {
		t.Fatal("parseTable accepted interval-free text")
	}
}
