package core

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files from the current implementation")

// goldenCell is one chip configuration pinned by TestMetricsMatchGolden.
type goldenCell struct {
	kind   Kind
	policy string
	plan   *fault.Plan
	tso    bool
}

// goldenCells covers every kind, the fault, policy and TSO paths, and
// so every stall the pipeline can sleep through.
func goldenCells() []goldenCell {
	var cells []goldenCell
	for _, k := range AllKinds() {
		cells = append(cells, goldenCell{kind: k})
	}
	return append(cells,
		goldenCell{kind: KindReunion, plan: &fault.Plan{MeanInterval: 5_000, Seed: 5}},
		goldenCell{kind: KindMMMIPC, policy: "duty-cycle:9000:40", plan: &fault.Plan{MeanInterval: 5_000, Seed: 5}},
		goldenCell{kind: KindSingleOS, policy: "fault-escalation", plan: &fault.Plan{MeanInterval: 3_000, Seed: 5}},
		goldenCell{kind: KindReunion, policy: "utilization"},
		goldenCell{kind: KindNoDMR2X, tso: true},
		goldenCell{kind: KindReunion, tso: true},
	)
}

// TestMetricsMatchGolden pins the full Metrics of each golden cell,
// every per-core stall counter included, byte for byte. The campaign
// golden rows carry only derived figures, so a change to how slept
// cycles are charged (FetchStallCycles, StoreCommitStall,
// FingerprintChecks and the rest) shows up here first. Regenerate only
// for documented semantic changes:
// go test ./internal/core -run MetricsMatchGolden -update
func TestMetricsMatchGolden(t *testing.T) {
	wl, err := workload.ByName("apache")
	if err != nil {
		t.Fatal(err)
	}
	var ms []Metrics
	for _, cell := range goldenCells() {
		cfg := sim.DefaultConfig()
		cfg.TimesliceCycles = 15_000
		cfg.TSO = cell.tso
		chip, err := NewSystem(Options{Cfg: cfg, Kind: cell.kind, Workload: wl, Seed: 11,
			Policy: cell.policy, FaultPlan: cell.plan})
		if err != nil {
			t.Fatal(err)
		}
		ms = append(ms, chip.Measure(30_000, 60_000))
	}
	got, err := json.MarshalIndent(ms, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "golden_metrics.json")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (generate with -update on a known-good tree): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("metrics diverged from the golden.\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}
