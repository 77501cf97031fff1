package campaign

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/obs"
)

// Per-job flight-recorder traces. The trace knobs live in engine /
// worker options — NOT in Job or Knobs — so job fingerprints, cached
// metrics and result rows are byte-identical whether tracing is on or
// off. Only simulated jobs produce traces (a cache hit has no chip to
// observe).

// traceRecorder returns a fresh recorder for one job when tracing is
// enabled and the job's aggregation key matches, else nil (the
// zero-cost disabled path).
func traceRecorder(dir, match string, j Job) *obs.Recorder {
	if dir == "" {
		return nil
	}
	if match != "" && !strings.Contains(j.Key(), match) {
		return nil
	}
	return obs.NewRecorder(0)
}

// traceBase mangles a job's key and seed into a filesystem-safe
// basename.
func traceBase(j Job) string {
	name := fmt.Sprintf("%s_seed%d", j.Key(), j.Seed)
	mangle := func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			return r
		case r == '-', r == '.', r == '+':
			return r
		default:
			return '_'
		}
	}
	return strings.Map(mangle, name)
}

// writeTrace writes one job's retained events as Chrome trace-event
// JSON (<base>.trace.json, perfetto-loadable) plus JSONL
// (<base>.trace.jsonl), creating dir as needed.
func writeTrace(dir string, j Job, rec *obs.Recorder) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(dir, traceBase(j))
	return rec.WriteFiles(base+".trace.json", base+".trace.jsonl", j.Key())
}
