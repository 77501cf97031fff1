package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestSampleBasics(t *testing.T) {
	var s Sample
	if s.Mean() != 0 || s.CI95() != 0 {
		t.Fatal("empty sample should report zeros")
	}
	for _, x := range []float64{2, 4, 6} {
		s.Add(x)
	}
	if s.Mean() != 4 {
		t.Fatalf("mean = %v, want 4", s.Mean())
	}
	if s.Min() != 2 || s.Max() != 6 {
		t.Fatalf("min/max wrong: %v %v", s.Min(), s.Max())
	}
	if got := s.StdDev(); math.Abs(got-2) > 1e-9 {
		t.Fatalf("stddev = %v, want 2", got)
	}
}

func TestSampleCI95(t *testing.T) {
	var s Sample
	s.Add(10)
	s.Add(12)
	s.Add(8)
	s.Add(10)
	// sd = sqrt(8/3) ~= 1.633, se = 0.8165, t(3) = 3.182
	want := 3.182 * math.Sqrt(8.0/3.0) / 2
	if got := s.CI95(); math.Abs(got-want) > 1e-3 {
		t.Fatalf("CI95 = %v, want %v", got, want)
	}
}

func TestSampleCIShrinks(t *testing.T) {
	// Property: for a fixed spread, more samples give a tighter CI.
	small, large := &Sample{}, &Sample{}
	for i := 0; i < 4; i++ {
		small.Add(float64(i % 2))
	}
	for i := 0; i < 64; i++ {
		large.Add(float64(i % 2))
	}
	if large.CI95() >= small.CI95() {
		t.Fatalf("CI did not shrink: n=4 %v vs n=64 %v", small.CI95(), large.CI95())
	}
}

func TestMeanWithinBounds(t *testing.T) {
	err := quick.Check(func(xs []float64) bool {
		var s Sample
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e300 {
				return true // avoid sum overflow, not a property violation
			}
			s.Add(x)
			lo = math.Min(lo, x)
			hi = math.Max(hi, x)
		}
		if s.N() == 0 {
			return true
		}
		m := s.Mean()
		return m >= lo-1e-9*math.Abs(lo) && m <= hi+1e-9*math.Abs(hi)
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestRatio(t *testing.T) {
	if Ratio(4, 2) != 2 {
		t.Fatal("Ratio(4,2) != 2")
	}
	if Ratio(1, 0) != 0 {
		t.Fatal("Ratio(x,0) should be 0")
	}
}

func TestCountersAdd(t *testing.T) {
	a := CoreCounters{Cycles: 10, UserCommits: 5, Stores: 2}
	b := CoreCounters{Cycles: 1, UserCommits: 2, Stores: 3, FPMismatches: 1}
	a.Add(&b)
	if a.Cycles != 11 || a.UserCommits != 7 || a.Stores != 5 || a.FPMismatches != 1 {
		t.Fatalf("Add gave %+v", a)
	}
	if got := a.UserIPC(); math.Abs(got-7.0/11) > 1e-12 {
		t.Fatalf("UserIPC = %v", got)
	}
}

func TestCacheCountersAdd(t *testing.T) {
	a := CacheCounters{L1Hits: 1, C2CTransfers: 2}
	b := CacheCounters{L1Hits: 3, C2CTransfers: 5, FlushedLines: 7}
	a.Add(&b)
	if a.L1Hits != 4 || a.C2CTransfers != 7 || a.FlushedLines != 7 {
		t.Fatalf("Add gave %+v", a)
	}
}

func TestTableRendering(t *testing.T) {
	tab := &Table{Title: "T", Columns: []string{"a", "bee"}}
	tab.AddRow("x", "1")
	tab.AddRow("longer", "2")
	out := tab.String()
	if !strings.Contains(out, "== T ==") {
		t.Fatalf("missing title:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, separator, two rows
		t.Fatalf("expected 5 lines, got %d:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[3], "x") || !strings.Contains(lines[4], "longer") {
		t.Fatalf("rows missing:\n%s", out)
	}
}

func TestTCriticalMonotone(t *testing.T) {
	prev := math.Inf(1)
	for df := 1; df < 200; df++ {
		v := tCritical95(df)
		if v > prev {
			t.Fatalf("t-critical increased at df=%d: %v > %v", df, v, prev)
		}
		prev = v
	}
	if tCritical95(10_000) != 1.96 {
		t.Fatal("large df should converge to 1.96")
	}
}

func TestWilson(t *testing.T) {
	// Degenerate cases.
	lo, hi := Wilson(0, 0)
	if lo != 0 || hi != 1 {
		t.Fatalf("Wilson(0,0) = [%v,%v], want [0,1]", lo, hi)
	}
	// All successes: the upper bound must include 1 (coverage
	// "statistically indistinguishable from 100%").
	lo, hi = Wilson(20, 20)
	if hi != 1 {
		t.Fatalf("Wilson(20,20) hi = %v, want 1", hi)
	}
	if lo < 0.80 || lo > 0.90 {
		t.Fatalf("Wilson(20,20) lo = %v, want ~0.84", lo)
	}
	// No successes mirrors all successes.
	lo2, hi2 := Wilson(0, 20)
	if lo2 != 0 || math.Abs((1-hi2)-lo) > 1e-12 {
		t.Fatalf("Wilson(0,20) = [%v,%v] not mirror of all-successes", lo2, hi2)
	}
	// Half-half is symmetric around 0.5 and inside (0,1).
	lo, hi = Wilson(10, 20)
	if math.Abs((0.5-lo)-(hi-0.5)) > 1e-12 || lo <= 0 || hi >= 1 {
		t.Fatalf("Wilson(10,20) = [%v,%v]", lo, hi)
	}
}

func TestPercentileSorted(t *testing.T) {
	if got := PercentileSorted(nil, 50); got != 0 {
		t.Fatalf("empty percentile = %v", got)
	}
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, tc := range []struct{ p, want float64 }{
		{50, 5}, {95, 10}, {99, 10}, {10, 1}, {100, 10},
	} {
		if got := PercentileSorted(xs, tc.p); got != tc.want {
			t.Fatalf("p%v = %v, want %v", tc.p, got, tc.want)
		}
	}
}

func TestWilsonHalfWidth(t *testing.T) {
	// The half-width is literally half the Wilson interval, symmetric
	// in successes and failures (coverage and SDC stop identically).
	for _, c := range []struct{ k, n uint64 }{{0, 10}, {5, 10}, {10, 10}, {3, 17}} {
		lo, hi := Wilson(c.k, c.n)
		if got := WilsonHalfWidth(c.k, c.n); got != (hi-lo)/2 {
			t.Errorf("WilsonHalfWidth(%d,%d) = %v, want (hi-lo)/2 = %v", c.k, c.n, got, (hi-lo)/2)
		}
		if a, b := WilsonHalfWidth(c.k, c.n), WilsonHalfWidth(c.n-c.k, c.n); math.Abs(a-b) > 1e-12 {
			t.Errorf("half-width not symmetric: p gives %v, 1-p gives %v", a, b)
		}
	}
	// No data: the vacuous [0,1] interval, half-width 0.5 — an adaptive
	// cell with no exposed faults never claims precision.
	if got := WilsonHalfWidth(0, 0); got != 0.5 {
		t.Fatalf("WilsonHalfWidth(0,0) = %v, want 0.5", got)
	}
	// Extreme proportions converge much faster than p=0.5 — the whole
	// point of sequential stopping.
	if WilsonHalfWidth(20, 20) >= WilsonHalfWidth(10, 20) {
		t.Fatal("p=1 interval not tighter than p=0.5 at equal n")
	}
}

func TestWorstCaseTrials(t *testing.T) {
	for _, half := range []float64{0.2, 0.1, 0.05, 0.01} {
		n := WorstCaseTrials(half)
		// At the returned n, even the widest proportion meets the target...
		if got := WilsonHalfWidth(n/2, n); got > half {
			t.Errorf("WorstCaseTrials(%g) = %d but p=0.5 half-width is %v", half, n, got)
		}
		// ...and n is minimal: one fewer trial misses it.
		if n > 1 {
			if got := WilsonHalfWidth((n-1)/2, n-1); got <= half {
				t.Errorf("WorstCaseTrials(%g) = %d not minimal: n-1 gives %v", half, n, got)
			}
		}
	}
	if WorstCaseTrials(0) != 0 {
		t.Fatal("WorstCaseTrials(0) must be 0 (no finite sample reaches zero width)")
	}
}
