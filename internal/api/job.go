package api

import (
	"crypto/sha256"
	"encoding/hex"
	"strconv"

	"repro/internal/core"
	"repro/internal/sim"
)

// SpecVersion is folded into every job fingerprint. Bump it whenever
// the simulator's semantics change in a way that invalidates previously
// cached metrics.
//
// v2: Reunion fingerprints cover memory access addresses, persistent
// divergences escalate to machine checks, and reliability (Monte
// Carlo trial batch) jobs exist.
//
// v3: Metrics.FaultsInjected is rebased at ResetMeasurement and now
// counts only measurement-window injections; cached v2 metrics for
// fault-injection cells include warmup faults and are invalid.
//
// v4: the runtime mode-policy axis exists (Knobs.Policy, folded into
// the fingerprint). Static-policy results are byte-identical to v3 —
// the golden-row regression pins that — but the fingerprint input
// set changed, so cached v3 entries are re-keyed, not reinterpreted.
//
// v5: adaptive-precision campaigns schedule reliability trials in
// waves (Knobs.Wave/TrialOffset). Only wave jobs rendered v5; non-wave
// jobs kept rendering the v4 prefix.
//
// v6: every job renders SpecVersion — the frozen v4 rendering of
// non-wave jobs is gone, so there is one fingerprint format. Results
// are unchanged, but every pre-v6 cache entry is re-keyed (cold), and
// the protocol check refuses fleets mixing v5 and v6 builds.
const SpecVersion = 6

// Scale sets the simulation windows shared by every job of a campaign.
type Scale struct {
	Warmup    sim.Cycle `json:"warmup"`
	Measure   sim.Cycle `json:"measure"`
	Timeslice sim.Cycle `json:"timeslice"`
}

// Knobs is the declarative form of the sim.Config mutations the
// evaluation sweeps over. Unlike a closure, a Knobs value is part of a
// job's identity: it canonicalizes into the cache fingerprint, so two
// jobs differing only in a knob never collide. A field added here must
// be rendered by Fingerprint (with a SpecVersion bump):
// TestEveryJobFieldSeparatesFingerprints finds it by reflection and
// fails while a change to it leaves the fingerprint unchanged, the
// silent cache-poisoning failure mode.
type Knobs struct {
	// PABSerial selects the serial 2-cycle PAB lookup (Section 5.2).
	PABSerial bool `json:"pab_serial,omitempty"`
	// PABDisabled turns PAB enforcement off (fault-injection ablation).
	PABDisabled bool `json:"pab_disabled,omitempty"`
	// TSO selects total-store-order instead of the paper's SC.
	TSO bool `json:"tso,omitempty"`
	// FlushPerCycle overrides the Leave-DMR flush rate when positive.
	FlushPerCycle int `json:"flush_per_cycle,omitempty"`
	// FaultInterval, when positive, injects faults with this mean
	// spacing in cycles.
	FaultInterval float64 `json:"fault_interval,omitempty"`
	// FaultKinds restricts injected manifestations to a comma-joined
	// list of canonical kind names ("result-flip,tlb-flip"); empty
	// injects all kinds. A string (not a slice) so Job stays
	// comparable and deduplicable.
	FaultKinds string `json:"fault_kinds,omitempty"`
	// ReliaTrials, when positive, turns the job into a reliability
	// evaluation batch: that many Monte Carlo fault-injection trials
	// run and the result carries an outcome taxonomy instead of
	// performance buckets (see internal/relia).
	ReliaTrials int `json:"relia_trials,omitempty"`
	// ForcePAB guards performance-mode stores with the PAB on system
	// kinds that do not enable it by default (the pure
	// performance-mode protection scenario).
	ForcePAB bool `json:"force_pab,omitempty"`
	// Policy names the runtime mode policy (internal/mode) deciding
	// when core pairs couple into DMR and decouple back to performance
	// mode: "" or "static" for the kind's pre-built behavior, or a
	// dynamic policy spec such as "utilization", "duty-cycle:60000:25"
	// or "fault-escalation". Expand canonicalizes and validates it.
	Policy string `json:"policy,omitempty"`
	// Wave, when positive, marks the job as the Wave'th (1-based)
	// sequential-stopping increment of an adaptive-precision cell:
	// ReliaTrials then counts only this wave's trials, and the trial
	// windows derive from the cell's reference batch shape so every
	// wave of a cell is statistically mergeable with the others. Wave
	// 0 is a plain fixed-batch job.
	Wave int `json:"wave,omitempty"`
	// TrialOffset is the global index of the wave's first trial within
	// its cell: wave trials [TrialOffset, TrialOffset+ReliaTrials) use
	// exactly the per-trial seeds a single fixed batch of the same
	// total size would, which is what makes the merged aggregate
	// provably equal to that batch.
	TrialOffset int `json:"trial_offset,omitempty"`
}

// Apply mutates a sim.Config according to the knobs. PABDisabled and
// FaultInterval act at the core.Options level, not here.
func (k Knobs) Apply(cfg *sim.Config) {
	if k.PABSerial {
		cfg.PABSerial = true
	}
	if k.TSO {
		cfg.TSO = true
	}
	if k.FlushPerCycle > 0 {
		cfg.FlushPerCycle = k.FlushPerCycle
	}
}

// Job is one fully specified simulation: a cell of the sweep
// cross-product. Jobs are pure data so they can be expanded, hashed,
// cached and distributed. Like Knobs, every field must reach the
// fingerprint, which TestEveryJobFieldSeparatesFingerprints checks.
type Job struct {
	Workload string    `json:"workload"`
	Kind     core.Kind `json:"kind"`
	Seed     uint64    `json:"seed"`
	Variant  string    `json:"variant,omitempty"`
	Knobs    Knobs     `json:"knobs"`
}

// Key is the aggregation key of the job's cell: runs differing only in
// seed share a key and fold into one stats.Sample. A non-default mode
// policy is its own key segment, so a policy sweep's cells never fold
// into the static baseline's. Waves of one adaptive cell share the
// cell's key — the wave index is an execution detail, not a cell.
func (j Job) Key() string {
	k := j.Workload + "/" + j.Kind.String()
	if j.Variant != "" {
		k += "/" + j.Variant
	}
	if j.Knobs.Policy != "" {
		k += "/pol=" + j.Knobs.Policy
	}
	return k
}

// SimSeed derives the seed handed to the simulator. Mixing the cell
// labels in decorrelates the random streams of different cells that
// declare the same seed, and is stable across processes, so cached
// results remain valid. The policy label is folded in only when set,
// so every pre-policy cell keeps its historical stream. Waves share
// the cell's seed: per-trial streams separate on the global trial
// index (Knobs.TrialOffset + t) inside relia.RunBatch, which is what
// keeps a waved cell's trials identical to a single batch's.
func (j Job) SimSeed() uint64 {
	if j.Knobs.Policy != "" {
		return sim.DeriveSeed(j.Seed, j.Workload, j.Kind.String(), j.Variant, j.Knobs.Policy)
	}
	return sim.DeriveSeed(j.Seed, j.Workload, j.Kind.String(), j.Variant)
}

// Fingerprint is the content address of the job's result: a SHA-256
// over the canonical rendering of (version, scale, every job
// parameter). Equal fingerprints mean byte-identical simulations. Wave
// jobs additionally render their wave coordinates.
//
// The rendering must not move without a SpecVersion bump: every cached
// result is filed under it, and testdata/fingerprints.json in
// internal/campaign pins it.
func (j Job) Fingerprint(sc Scale) string {
	b := make([]byte, 0, 256)
	b = strconv.AppendInt(append(b, 'v'), SpecVersion, 10)
	b = strconv.AppendUint(append(b, "|warm="...), sc.Warmup, 10)
	b = strconv.AppendUint(append(b, "|meas="...), sc.Measure, 10)
	b = strconv.AppendUint(append(b, "|slice="...), sc.Timeslice, 10)
	b = append(append(b, "|wl="...), j.Workload...)
	b = append(append(b, "|kind="...), j.Kind.String()...)
	b = strconv.AppendUint(append(b, "|seed="...), j.Seed, 10)
	b = append(append(b, "|var="...), j.Variant...)
	b = strconv.AppendBool(append(b, "|pabser="...), j.Knobs.PABSerial)
	b = strconv.AppendBool(append(b, "|pabdis="...), j.Knobs.PABDisabled)
	b = strconv.AppendBool(append(b, "|tso="...), j.Knobs.TSO)
	b = strconv.AppendInt(append(b, "|flush="...), int64(j.Knobs.FlushPerCycle), 10)
	b = strconv.AppendFloat(append(b, "|fault="...), j.Knobs.FaultInterval, 'g', -1, 64)
	b = append(append(b, "|fkinds="...), j.Knobs.FaultKinds...)
	b = strconv.AppendInt(append(b, "|rtrials="...), int64(j.Knobs.ReliaTrials), 10)
	b = strconv.AppendBool(append(b, "|fpab="...), j.Knobs.ForcePAB)
	b = append(append(b, "|policy="...), j.Knobs.Policy...)
	if j.Knobs.Wave > 0 {
		b = strconv.AppendInt(append(b, "|wave="...), int64(j.Knobs.Wave), 10)
		b = strconv.AppendInt(append(b, "|off="...), int64(j.Knobs.TrialOffset), 10)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
