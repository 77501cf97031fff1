// Hot-path benchmark: raw simulated cycles per wall-clock second of
// Chip.Run for every evaluated system kind, independent of the
// campaign/experiment layers. It is a profiling microbenchmark: no
// gate reads its numbers (performance is gated by the same-box A/B of
// `mmmgate bench`), and BENCH_hotpath.json keeps the per-cell numbers
// it recorded for earlier optimizations as frozen history.
//
//	go test -run=NONE -bench=BenchmarkHotPath -benchtime=2s -cpuprofile cpu.prof .
package repro

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/workload"
)

// hotPathCell names one benchmark configuration: a system kind, in
// Kind order, plus dynamic-mode-policy cells (policy decisions and
// their transitions are chip-level events the event-horizon run loop
// must absorb, so their speed belongs in the measured grid).
type hotPathCell struct {
	name   string
	kind   core.Kind
	policy string
}

var hotPathKinds = func() []hotPathCell {
	var cells []hotPathCell
	for _, k := range core.AllKinds() {
		cells = append(cells, hotPathCell{name: k.String(), kind: k})
	}
	return append(cells,
		hotPathCell{name: "MMM-IPC+duty-cycle", kind: core.KindMMMIPC, policy: "duty-cycle"},
		hotPathCell{name: "Reunion+utilization", kind: core.KindReunion, policy: "utilization"},
	)
}()

// hotPathWorkloads and hotPathSeeds span the measurement grid: two
// workload mixes (apache, the paper's most switch-heavy server mix;
// oltp, its transaction-processing counterpart) by three seeds, so a
// profile or a comparison sees a per-cell spread instead of a single
// apache/seed-11 point — per "Producing Wrong Data Without Doing
// Anything Obviously Wrong", one cell's median is exactly the
// measurement-bias trap.
var (
	hotPathWorkloads = []string{"apache", "oltp"}
	hotPathSeeds     = []uint64{11, 12, 13}
)

// hotPathChip builds one benchmark system at the default
// configuration, settled past the cold-cache transient so the
// benchmark window measures steady-state simulation speed.
func hotPathChip(b *testing.B, cell hotPathCell, wlName string, seed uint64) *core.Chip {
	b.Helper()
	wl, err := workload.ByName(wlName)
	if err != nil {
		b.Fatal(err)
	}
	chip, err := core.NewSystem(core.Options{Kind: cell.kind, Policy: cell.policy, Workload: wl, Seed: seed})
	if err != nil {
		b.Fatal(err)
	}
	chip.Run(20_000)
	return chip
}

// BenchmarkHotPath measures Chip.Run throughput in simulated cycles
// per second across the kind × workload × seed grid. Sub-benchmark
// names are <kind>/<workload>/s<seed>.
func BenchmarkHotPath(b *testing.B) {
	const slice = 10_000 // cycles per iteration: several gang timeslices per second
	for _, cell := range hotPathKinds {
		for _, wlName := range hotPathWorkloads {
			for _, seed := range hotPathSeeds {
				b.Run(fmt.Sprintf("%s/%s/s%d", cell.name, wlName, seed), func(b *testing.B) {
					chip := hotPathChip(b, cell, wlName, seed)
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						chip.Run(slice)
					}
					b.StopTimer()
					secs := b.Elapsed().Seconds()
					if secs > 0 {
						b.ReportMetric(float64(b.N)*slice/secs, "cycles/sec")
					}
				})
			}
		}
	}
}

// BenchmarkHotPathTick measures the per-cycle reference path (Tick in a
// loop) so the event-horizon bulk stepping of Run keeps an honest
// comparison point.
func BenchmarkHotPathTick(b *testing.B) {
	const slice = 10_000
	for _, kind := range []core.Kind{core.KindNoDMR, core.KindMMMTP} {
		b.Run(kind.String(), func(b *testing.B) {
			chip := hotPathChip(b, hotPathCell{name: kind.String(), kind: kind}, "apache", 11)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for c := sim.Cycle(0); c < slice; c++ {
					chip.Tick()
				}
			}
			b.StopTimer()
			secs := b.Elapsed().Seconds()
			if secs > 0 {
				b.ReportMetric(float64(b.N)*slice/secs, "cycles/sec")
			}
		})
	}
}
