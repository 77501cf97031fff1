package campaign

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
)

// pinnedFingerprint is one line of testdata/fingerprints.json: a job
// at a named scale with the aggregation key and fingerprint it had
// when the file was written.
type pinnedFingerprint struct {
	Scale string `json:"scale"`
	Job   Job    `json:"job"`
	Key   string `json:"key"`
	Fp    string `json:"fp"`
}

// pinnedScales are the scales the fingerprints are pinned at: the
// -quick preset and the full one.
var pinnedScales = map[string]Scale{"quick": QuickScale(), "full": DefaultScale()}

// fingerprintJobs lists the pinned jobs: every registered campaign for
// apache and pmake at seed 11, wave jobs of adaptive cells (a wave
// past the first, so TrialOffset is set), and fault-injection jobs
// whose knobs take values the registry never sets, one with an
// interval that %g renders in exponent form.
func fingerprintJobs(t *testing.T) []Job {
	t.Helper()
	var jobs []Job
	for _, name := range Names() {
		spec, err := Named(name, []string{"apache", "pmake"}, []uint64{11})
		if err != nil {
			t.Fatal(err)
		}
		js, err := spec.Expand()
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, js...)
	}
	for i, cell := range ReliaJobs([]string{"apache"}, []uint64{11}, []float64{25_000}, 0) {
		cell.Knobs.Wave = 2 + i
		cell.Knobs.TrialOffset = 12 * (1 + i)
		cell.Knobs.ReliaTrials = 12 - i
		jobs = append(jobs, cell)
	}
	jobs = append(jobs, Job{Workload: "pmake", Kind: core.KindMMMIPC, Seed: 1<<63 + 5, Variant: "flt",
		Knobs: Knobs{PABDisabled: true, TSO: true, FlushPerCycle: 3, FaultInterval: 12_345.678,
			FaultKinds: "result-flip,tlb-flip", Policy: "duty-cycle:9000:40"}},
		Job{Workload: "apache", Kind: core.KindReunion, Seed: 23, Variant: "rare",
			Knobs: Knobs{PABSerial: true, FaultInterval: 2.5e6, FaultKinds: "tlb-flip", ReliaTrials: 3, ForcePAB: true}})
	return jobs
}

// TestFingerprintsMatchGolden pins job keys and fingerprints. They are
// cache addresses: a rendering change that moves one would quietly turn
// every cache entry cold, so the file is written once from a
// known-good tree and never regenerated by a change that claims to
// keep them. Each pinned job must still render its recorded key and
// fingerprint.
func TestFingerprintsMatchGolden(t *testing.T) {
	path := filepath.Join("testdata", "fingerprints.json")
	if *updateGolden {
		var buf bytes.Buffer
		buf.WriteString("[\n")
		for _, name := range []string{"quick", "full"} {
			for _, j := range fingerprintJobs(t) {
				line, err := json.Marshal(pinnedFingerprint{Scale: name, Job: j, Key: j.Key(), Fp: j.Fingerprint(pinnedScales[name])})
				if err != nil {
					t.Fatal(err)
				}
				if buf.Len() > 2 {
					buf.WriteString(",\n")
				}
				buf.Write(line)
			}
		}
		buf.WriteString("\n]\n")
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", path, buf.Len())
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (generate with -update on a known-good tree): %v", err)
	}
	var pinned []pinnedFingerprint
	if err := json.Unmarshal(data, &pinned); err != nil {
		t.Fatal(err)
	}
	if len(pinned) == 0 {
		t.Fatal("no pinned fingerprints")
	}
	for _, p := range pinned {
		sc, ok := pinnedScales[p.Scale]
		if !ok {
			t.Fatalf("pinned entry names unknown scale %q", p.Scale)
		}
		if got := p.Job.Key(); got != p.Key {
			t.Errorf("%+v: key %q, pinned %q", p.Job, got, p.Key)
		}
		if got := p.Job.Fingerprint(sc); got != p.Fp {
			t.Errorf("%s %+v: fingerprint %s, pinned %s", p.Scale, p.Job, got, p.Fp)
		}
	}
}
