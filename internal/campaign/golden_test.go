package campaign

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/stats"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files from the current implementation")

// goldenJobs covers every evaluated system kind plus the knob paths
// (serial PAB, fault injection, reliability batches, mode policies,
// TSO, the Leave-DMR flush rate) at a small fixed scale, one cell
// each.
func goldenJobs() []Job {
	kinds := []core.Kind{
		core.KindNoDMR2X, core.KindNoDMR, core.KindReunion, core.KindDMRBase,
		core.KindMMMIPC, core.KindMMMTP, core.KindSingleOS,
	}
	var jobs []Job
	for _, k := range kinds {
		jobs = append(jobs, Job{Workload: "apache", Kind: k, Seed: 11})
	}
	jobs = append(jobs,
		Job{Workload: "apache", Kind: core.KindMMMIPC, Seed: 11, Variant: "serial",
			Knobs: Knobs{PABSerial: true}},
		Job{Workload: "apache", Kind: core.KindReunion, Seed: 11, Variant: "flt",
			Knobs: Knobs{FaultInterval: 5_000}},
		Job{Workload: "apache", Kind: core.KindMMMIPC, Seed: 11, Variant: "relia",
			Knobs: Knobs{FaultInterval: 20_000, ReliaTrials: 2}},
		// Compiled-schedule fast paths (PR 10): duty-cycle on a
		// single-group roster, on a multi-group roster, and racing fault
		// injection. The seven kind rows above already pin compiled
		// static (single- and multi-group); these pin the precompiled
		// duty timeline byte-for-byte.
		Job{Workload: "apache", Kind: core.KindReunion, Seed: 11, Variant: "duty",
			Knobs: Knobs{Policy: "duty-cycle"}},
		Job{Workload: "apache", Kind: core.KindMMMIPC, Seed: 11, Variant: "duty",
			Knobs: Knobs{Policy: "duty-cycle"}},
		Job{Workload: "apache", Kind: core.KindMMMIPC, Seed: 11, Variant: "duty-flt",
			Knobs: Knobs{Policy: "duty-cycle:9000:40", FaultInterval: 5_000}},
		// The two ablation knobs: Reunion under TSO (the store buffer
		// path) and MMM-TP flushing four lines per cycle on Leave-DMR.
		Job{Workload: "apache", Kind: core.KindReunion, Seed: 11, Variant: "tso",
			Knobs: Knobs{TSO: true}},
		Job{Workload: "apache", Kind: core.KindMMMTP, Seed: 11, Variant: "flush4",
			Knobs: Knobs{FlushPerCycle: 4}},
	)
	return jobs
}

// TestGoldenRowsMatchPreRefactor pins the campaign rows of every
// pre-existing system kind byte-for-byte against the implementation
// that predates the mode-policy layer (testdata/golden_rows.json was
// generated from the static `groups []plan` rotation in PR 4). Any
// refactor of the scheduling seam that shifts a single transition
// cycle, counter or aggregation byte fails here. Regenerate only for
// documented semantic changes: go test ./internal/campaign -run Golden -update
func TestGoldenRowsMatchPreRefactor(t *testing.T) {
	sc := Scale{Warmup: 30_000, Measure: 60_000, Timeslice: 15_000}
	eng := New(Options{Parallel: 4})
	rs, err := eng.Run(context.Background(), sc, goldenJobs())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := stats.WriteRowsJSON(&buf, Summarize(rs)); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "golden_rows.json")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", path, buf.Len())
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (generate with -update on a known-good tree): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("campaign rows diverged from the pre-refactor golden.\nGot %d bytes, want %d.\nIf the change is an intended semantic change, document it and regenerate with -update.\n--- got ---\n%s\n--- want ---\n%s",
			buf.Len(), len(want), truncate(buf.String(), 4000), truncate(string(want), 4000))
	}
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "\n...[truncated]"
}
