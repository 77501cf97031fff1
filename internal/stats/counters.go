package stats

import (
	"fmt"
	"strings"
)

// CoreCounters tallies per-core pipeline events during a run. The
// paper's key diagnostics — window-full cycles, serializing-instruction
// fetch stalls, check-stage wait cycles — are all recorded here so the
// overhead decomposition of Section 5.1 can be reproduced.
type CoreCounters struct {
	Cycles            uint64
	UserCycles        uint64
	OSCycles          uint64
	UserCommits       uint64
	OSCommits         uint64
	Commits           uint64
	Loads             uint64
	Stores            uint64
	Branches          uint64
	Mispredicts       uint64
	SerializingInsts  uint64
	WindowFullCycles  uint64
	SIStallCycles     uint64
	CheckWaitCycles   uint64
	FetchStallCycles  uint64
	StoreCommitStall  uint64
	StoreLatCycles    uint64
	LoadLatCycles     uint64
	TLBMisses         uint64
	TrapEntries       uint64
	TrapReturns       uint64
	IdleCycles        uint64
	ModeSwitches      uint64
	EnterDMRCycles    uint64
	LeaveDMRCycles    uint64
	PABChecks         uint64
	PABMisses         uint64
	PABExceptions     uint64
	FingerprintChecks uint64
	FPMismatches      uint64
	Recoveries        uint64
}

// Add accumulates other into c (used when merging per-core counters
// into chip-level totals).
func (c *CoreCounters) Add(o *CoreCounters) {
	c.Cycles += o.Cycles
	c.UserCycles += o.UserCycles
	c.OSCycles += o.OSCycles
	c.UserCommits += o.UserCommits
	c.OSCommits += o.OSCommits
	c.Commits += o.Commits
	c.Loads += o.Loads
	c.Stores += o.Stores
	c.Branches += o.Branches
	c.Mispredicts += o.Mispredicts
	c.SerializingInsts += o.SerializingInsts
	c.WindowFullCycles += o.WindowFullCycles
	c.SIStallCycles += o.SIStallCycles
	c.CheckWaitCycles += o.CheckWaitCycles
	c.FetchStallCycles += o.FetchStallCycles
	c.StoreCommitStall += o.StoreCommitStall
	c.StoreLatCycles += o.StoreLatCycles
	c.LoadLatCycles += o.LoadLatCycles
	c.TLBMisses += o.TLBMisses
	c.TrapEntries += o.TrapEntries
	c.TrapReturns += o.TrapReturns
	c.IdleCycles += o.IdleCycles
	c.ModeSwitches += o.ModeSwitches
	c.EnterDMRCycles += o.EnterDMRCycles
	c.LeaveDMRCycles += o.LeaveDMRCycles
	c.PABChecks += o.PABChecks
	c.PABMisses += o.PABMisses
	c.PABExceptions += o.PABExceptions
	c.FingerprintChecks += o.FingerprintChecks
	c.FPMismatches += o.FPMismatches
	c.Recoveries += o.Recoveries
}

// UserIPC returns committed user instructions divided by total cycles,
// the paper's per-thread performance metric.
func (c *CoreCounters) UserIPC() float64 {
	if c.Cycles == 0 {
		return 0
	}
	return float64(c.UserCommits) / float64(c.Cycles)
}

// CacheCounters tallies memory-hierarchy events.
type CacheCounters struct {
	L1Hits          uint64
	L1Misses        uint64
	L2Hits          uint64
	L2Misses        uint64
	L3Hits          uint64
	C2CTransfers    uint64
	MemAccesses     uint64
	Writebacks      uint64
	Invalidations   uint64
	IncoherentLoads uint64
	FlushedLines    uint64
	FlushWritebacks uint64

	// Latency sums per data source (diagnostics: average miss cost).
	LatL2  uint64
	LatC2C uint64
	LatL3  uint64
	LatMem uint64
}

// Add accumulates other into c.
func (c *CacheCounters) Add(o *CacheCounters) {
	c.L1Hits += o.L1Hits
	c.L1Misses += o.L1Misses
	c.L2Hits += o.L2Hits
	c.L2Misses += o.L2Misses
	c.L3Hits += o.L3Hits
	c.C2CTransfers += o.C2CTransfers
	c.MemAccesses += o.MemAccesses
	c.Writebacks += o.Writebacks
	c.Invalidations += o.Invalidations
	c.IncoherentLoads += o.IncoherentLoads
	c.FlushedLines += o.FlushedLines
	c.FlushWritebacks += o.FlushWritebacks
	c.LatL2 += o.LatL2
	c.LatC2C += o.LatC2C
	c.LatL3 += o.LatL3
	c.LatMem += o.LatMem
}

// Table renders rows of labelled values as a fixed-width text table —
// the output format used by cmd/mmmbench when regenerating the paper's
// tables and figures.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
}

// AddRow appends a row of cells.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}
