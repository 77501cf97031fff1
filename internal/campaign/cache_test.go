package campaign

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"repro/internal/core"
)

// cacheMetrics is a result with every kind of field a cache entry
// carries: scalars, the guest maps and a reliability batch.
func cacheMetrics(cycles uint64) core.Metrics {
	return core.Metrics{
		Kind:       core.KindMMMTP,
		Workload:   "apache",
		Cycles:     cycles,
		GuestUser:  map[string]uint64{"perf": 42, "reliable": 7},
		GuestOS:    map[string]uint64{"perf": 1},
		GuestVCPUs: map[string]int{"perf": 16, "reliable": 8},
		EnterAvg:   2200.5,
		Relia: &core.ReliaBatch{Trials: 3, Outcomes: map[string]uint64{"masked": 3},
			DetectLat: map[string][]float64{"fingerprint": {1, 2}}},
	}
}

// TestDiskCacheServesRepeatGetsFromMemory: once Get has decoded an
// entry, later Gets of it come from memory, so they hit even after the
// entry's file is gone, and return what the first Get returned.
func TestDiskCacheServesRepeatGetsFromMemory(t *testing.T) {
	c, err := NewDiskCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Put("deadbeef", cacheMetrics(123)); err != nil {
		t.Fatal(err)
	}
	first, ok := c.Get("deadbeef")
	if !ok {
		t.Fatal("stored entry not found")
	}
	if err := os.Remove(c.path("deadbeef")); err != nil {
		t.Fatal(err)
	}
	second, ok := c.Get("deadbeef")
	if !ok {
		t.Fatal("second Get missed once the file was gone: entry not kept in memory")
	}
	if !reflect.DeepEqual(first, second) || !reflect.DeepEqual(second, cacheMetrics(123)) {
		t.Fatalf("memory hit differs from the disk hit:\nfirst:  %+v\nsecond: %+v", first, second)
	}
}

// TestDiskCacheCorruptEntryNotKept: a corrupt entry is a miss on every
// Get and never enters the memory tier; a later Put replaces it and
// Get returns the new value.
func TestDiskCacheCorruptEntryNotKept(t *testing.T) {
	c, err := NewDiskCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	p := c.path("cafe")
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(p, []byte(`{"Cycles": 12`), 0o644); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, ok := c.Get("cafe"); ok {
			t.Fatalf("Get %d of a corrupt entry hit", i)
		}
	}
	if n := c.mem.Len(); n != 0 {
		t.Fatalf("memory tier kept %d entries after corrupt reads, want 0", n)
	}
	want := cacheMetrics(77)
	if err := c.Put("cafe", want); err != nil {
		t.Fatal(err)
	}
	got, ok := c.Get("cafe")
	if !ok || !reflect.DeepEqual(got, want) {
		t.Fatalf("Get after Put = %+v, %v; want %+v", got, ok, want)
	}
}

// TestDiskCachePutDropsKeptCopy: Put replaces the file and forgets the
// kept copy, so the next Get decodes what Put wrote.
func TestDiskCachePutDropsKeptCopy(t *testing.T) {
	c, err := NewDiskCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Put("ab12", cacheMetrics(1)); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get("ab12"); !ok {
		t.Fatal("stored entry not found")
	}
	if err := c.Put("ab12", cacheMetrics(2)); err != nil {
		t.Fatal(err)
	}
	if got, ok := c.Get("ab12"); !ok || got.Cycles != 2 {
		t.Fatalf("Get after a second Put = cycles %d, %v; want 2, true", got.Cycles, ok)
	}
}

// TestMemCacheKeepBudget: the tier never holds more than its budget.
// Keeping past the budget starts the tier over, an entry larger than
// the budget is not kept, and a key kept twice counts once.
func TestMemCacheKeepBudget(t *testing.T) {
	const budget, size = 1000, 300
	c := NewMemCache()
	for i := 0; i < 10; i++ {
		c.keep(fmt.Sprint("k", i), cacheMetrics(uint64(i)), size, budget)
		c.keep(fmt.Sprint("k", i), cacheMetrics(uint64(i)), size, budget)
		if c.bytes > budget || c.Len()*size != c.bytes {
			t.Fatalf("after key %d: %d entries, %d bytes; budget %d", i, c.Len(), c.bytes, budget)
		}
		if want := i%3 + 1; c.Len() != want {
			t.Fatalf("after key %d: %d entries, want %d", i, c.Len(), want)
		}
	}
	c.keep("huge", core.Metrics{}, budget+1, budget)
	if _, ok := c.Get("huge"); ok {
		t.Fatal("an entry larger than the budget was kept")
	}

	// DiskCache charges an entry its encoded size on disk.
	dc, err := NewDiskCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := dc.Put("beef", cacheMetrics(5)); err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(dc.path("beef"))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := dc.Get("beef"); !ok {
		t.Fatal("stored entry not found")
	}
	if dc.mem.bytes != int(st.Size()) {
		t.Fatalf("tier charged %d bytes for a %d-byte entry", dc.mem.bytes, st.Size())
	}
}

// TestDiskCacheConcurrentGetPut exercises the memory tier from several
// goroutines at once; run it under -race.
func TestDiskCacheConcurrentGetPut(t *testing.T) {
	c, err := NewDiskCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	keys := []string{"aa01", "aa02", "bb03", "cc04"}
	for i, k := range keys[:2] {
		if err := c.Put(k, cacheMetrics(uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := keys[(g+i)%len(keys)]
				if m, ok := c.Get(k); ok && m.GuestUser["perf"] != 42 {
					t.Errorf("key %s: mangled hit %+v", k, m)
					return
				}
				if i%7 == 0 {
					if err := c.Put(k, cacheMetrics(uint64(g))); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	for _, k := range keys {
		if _, ok := c.Get(k); !ok {
			t.Errorf("key %s missing after the writers finished", k)
		}
	}
}

// TestDiskCacheWarmRunsFromMemory: repeated warm runs of a campaign on
// one DiskCache reproduce the cold run's rows byte for byte, and after
// the first warm run they need no file: every cell comes from memory.
func TestDiskCacheWarmRunsFromMemory(t *testing.T) {
	jobs := determinismJobs(t)[:2]
	dir := t.TempDir()
	cache, err := NewDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	eng := New(Options{Parallel: 2, Cache: cache})
	cold, rs := summarizeJSON(t, eng, jobs)
	if rs.Misses != len(jobs) {
		t.Fatalf("cold run: %d misses, want %d", rs.Misses, len(jobs))
	}
	for run := 1; run <= 3; run++ {
		warm, rs := summarizeJSON(t, eng, jobs)
		if rs.Hits != len(jobs) {
			t.Fatalf("warm run %d: %d hits, want %d", run, rs.Hits, len(jobs))
		}
		if !bytes.Equal(cold, warm) {
			t.Fatalf("warm run %d diverges from the cold run:\ncold: %s\nwarm: %s", run, cold, warm)
		}
		if run == 1 {
			if n := cache.mem.Len(); n != len(jobs) {
				t.Fatalf("memory tier holds %d entries after a warm run, want %d", n, len(jobs))
			}
			// Later runs must not need the files.
			if err := os.RemoveAll(dir); err != nil {
				t.Fatal(err)
			}
		}
	}
}
