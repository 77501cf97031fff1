package sim

import (
	"testing"
	"testing/quick"
)

func TestRandDeterminism(t *testing.T) {
	a := NewRand(42)
	b := NewRand(42)
	for i := 0; i < 10_000; i++ {
		if a.Next() != b.Next() {
			t.Fatalf("generators with the same seed diverged at step %d", i)
		}
	}
}

func TestRandSnapshotRestore(t *testing.T) {
	r := NewRand(7)
	for i := 0; i < 100; i++ {
		r.Next()
	}
	snap := r.Snapshot()
	want := make([]uint64, 50)
	for i := range want {
		want[i] = r.Next()
	}
	r.Restore(snap)
	for i := range want {
		if got := r.Next(); got != want[i] {
			t.Fatalf("restored stream diverged at %d: got %d want %d", i, got, want[i])
		}
	}
}

func TestRandIntnBounds(t *testing.T) {
	r := NewRand(1)
	err := quick.Check(func(nRaw uint16) bool {
		n := int(nRaw%1000) + 1
		v := r.Intn(n)
		return v >= 0 && v < n
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestRandFloat64Range(t *testing.T) {
	r := NewRand(3)
	for i := 0; i < 100_000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestRandUniformity(t *testing.T) {
	r := NewRand(5)
	const buckets = 16
	var counts [buckets]int
	const n = 160_000
	for i := 0; i < n; i++ {
		counts[r.Intn(buckets)]++
	}
	for b, c := range counts {
		// Each bucket expects n/buckets = 10000; allow 5%.
		if c < 9500 || c > 10500 {
			t.Fatalf("bucket %d has %d hits, expected ~10000", b, c)
		}
	}
}

func TestGeometricMean(t *testing.T) {
	r := NewRand(9)
	for _, mean := range []float64{2, 10, 1000, 50_000} {
		sum := 0.0
		const n = 20_000
		for i := 0; i < n; i++ {
			sum += float64(r.Geometric(mean))
		}
		got := sum / n
		if got < mean*0.9 || got > mean*1.1 {
			t.Errorf("Geometric(%v) sample mean %v, want within 10%%", mean, got)
		}
	}
}

func TestGeometricMinimum(t *testing.T) {
	r := NewRand(2)
	for i := 0; i < 10_000; i++ {
		if k := r.Geometric(1.5); k < 1 {
			t.Fatalf("Geometric returned %d < 1", k)
		}
	}
	if k := r.Geometric(0.5); k != 1 {
		t.Fatalf("Geometric with mean <= 1 should return 1, got %d", k)
	}
}

func TestDefaultConfigValid(t *testing.T) {
	cfg := DefaultConfig()
	if err := cfg.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	if cfg.L2Lines() != 8192 {
		t.Fatalf("expected 8192 L2 lines (512KB / 64B), got %d", cfg.L2Lines())
	}
	if got := cfg.VCPUStateLines(); got != 36 {
		t.Fatalf("expected 36 VCPU state lines (2304B), got %d", got)
	}
}

func TestConfigValidation(t *testing.T) {
	cases := []func(*Config){
		func(c *Config) { c.Cores = 3 },
		func(c *Config) { c.Cores = 0 },
		func(c *Config) { c.LineSize = 48 },
		func(c *Config) { c.PageBytes = 3000 },
		func(c *Config) { c.WindowSize = 0 },
		func(c *Config) { c.FlushPerCycle = 0 },
	}
	for i, mut := range cases {
		cfg := DefaultConfig()
		mut(cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

// TestStreamCheckPinned pins the RNG stream digest that the
// distributed campaign protocol exchanges at attach time. If this
// test fails, the generator or DeriveSeed changed semantics: that is
// allowed, but it invalidates every cached campaign result — bump
// api.SpecVersion in the same change, then update the constant
// here. (The protocol token already folds SpecVersion in, so a
// correctly-bumped build pairs only with its own kind.)
func TestStreamCheckPinned(t *testing.T) {
	const pinned = "0c8267d67d3fbdce"
	if got := StreamCheck(); got != pinned {
		t.Fatalf("StreamCheck() = %q, want %q — RNG stream semantics changed; bump api.SpecVersion and repin", got, pinned)
	}
	if StreamCheck() != StreamCheck() {
		t.Fatal("StreamCheck not stable across calls")
	}
}

// TestSkipAndOutputAtMatchNext: Skip(n) leaves the state n Next calls
// leave, and OutputAt(s, i) is the (i+1)-th Next after Restore(s).
func TestSkipAndOutputAtMatchNext(t *testing.T) {
	for _, seed := range []uint64{0, 1, 42, 1 << 63} {
		r := NewRand(seed)
		r.Next()
		s := r.Snapshot()
		var outs []uint64
		for i := 0; i < 3000; i++ {
			outs = append(outs, r.Next())
		}
		for i, want := range outs {
			if got := OutputAt(s, uint64(i)); got != want {
				t.Fatalf("seed %d: OutputAt(s, %d) = %#x, Next gave %#x", seed, i, got, want)
			}
		}
		for _, n := range []uint64{0, 1, 2, 17, 2999} {
			skip := NewRand(0)
			skip.Restore(s)
			skip.Skip(n)
			step := NewRand(0)
			step.Restore(s)
			for i := uint64(0); i < n; i++ {
				step.Next()
			}
			if skip.Snapshot() != step.Snapshot() {
				t.Fatalf("seed %d: Skip(%d) state %#x, %d Next calls %#x",
					seed, n, skip.Snapshot(), n, step.Snapshot())
			}
			if skip.Next() != step.Next() {
				t.Fatalf("seed %d: streams diverge after Skip(%d)", seed, n)
			}
		}
	}
}
