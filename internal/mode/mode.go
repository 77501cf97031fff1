// Package mode is the runtime mode-policy layer of the Mixed-Mode
// Multicore: the seam between the chip's mode-transition machinery
// (internal/core) and the question *when* a core pair should run
// coupled (DMR, reliable) or decoupled (independent, performance).
//
// The paper's evaluated systems are static answers — every pair's plan
// is fixed at construction and, on a consolidated server, rotated at
// gang timeslice boundaries. This package makes the answer a policy:
// the chip consults a Policy at scheduling boundaries (timeslice
// expiry, periodic utilization samples, protection-mechanism events)
// and the policy returns the next per-pair assignment. The seven
// static system kinds are one registered policy ("static", a pure
// reformulation of the gang rotation, byte-identical to the
// pre-policy implementation); dynamic policies — utilization-triggered
// coupling, duty-cycle DMR scrubbing, fault-triggered escalation —
// are the new scenario axis the refactor opens.
//
// The package deliberately knows nothing about VCPUs, cores or cache
// hierarchies. A policy sees pair indices, roster groups (the gang
// groups the system kind pre-built) and per-pair utilization/​status
// summaries, and answers with (group, override) assignments. The chip
// owns the mapping from assignments to concrete pair plans, skips
// pairs whose mode transition is still in flight, and drops decisions
// that would not change the pair's plan.
package mode

import "repro/internal/sim"

// Override adjusts how a pair runs the roster group it was assigned:
// as built (None), forced into DMR coupling (Couple), or forced into
// independent performance execution (Decouple). Overrides that do not
// apply to the group's built plan — coupling an already-DMR plan,
// decoupling an already-independent one — are no-ops, which lets one
// policy express "scrub now" uniformly across heterogeneous rosters.
type Override uint8

const (
	// OverrideNone runs the group's plan as the system kind built it.
	OverrideNone Override = iota
	// OverrideCouple forces the pair into DMR: the group's vocal VCPU
	// runs redundantly on both cores; an independent mute VCPU, if the
	// plan had one, is displaced (its state is saved at Enter-DMR).
	OverrideCouple
	// OverrideDecouple forces the pair out of DMR: the vocal VCPU runs
	// alone in performance mode and the mute core idles.
	OverrideDecouple
)

// String names the override.
func (o Override) String() string {
	switch o {
	case OverrideNone:
		return "none"
	case OverrideCouple:
		return "couple"
	case OverrideDecouple:
		return "decouple"
	default:
		return "?"
	}
}

// Assignment is a policy's answer for one pair: which roster group to
// run and how to override its coupling. The zero value — group 0, no
// override — is the initial state of every system kind.
type Assignment struct {
	Group    int
	Override Override
}

// PairStatus is the chip's per-pair report at a decision point.
type PairStatus struct {
	// Assignment is the pair's current target assignment: the one most
	// recently applied, or the one a still-in-flight transition is
	// moving toward.
	Assignment Assignment
	// DMR reports whether the currently *applied* plan runs coupled.
	// It can disagree with Assignment while a transition is in flight,
	// and with Assignment.Override when a trap hook (single-OS mode
	// switching) changed the coupling underneath the policy.
	DMR bool
	// InTransition reports a mode transition in flight; decisions for
	// this pair will be dropped, so a policy that must win re-issues
	// them at its next decision point.
	InTransition bool
	// VocalCommits / MuteCommits are the instructions committed on the
	// pair's even / odd core since the previous decision point — the
	// utilization signal. In DMR mode the mute core's commits mirror
	// the vocal's.
	VocalCommits, MuteCommits uint64
	// Window is the number of cycles since the previous decision point
	// (the denominator of a commit-rate computed from the deltas
	// above). Zero when two events land on the same cycle.
	Window sim.Cycle
	// VocalBusy / MuteBusy report whether each core currently has an
	// instruction stream (parked cores are not busy).
	VocalBusy, MuteBusy bool
}

// EventKind classifies a decision point.
type EventKind uint8

const (
	// EvTimer fires when the simulation clock reaches the policy's
	// NextEventAt horizon: gang timeslice expiries, utilization sample
	// periods, duty-cycle boundaries, escalation decay deadlines.
	EvTimer EventKind = iota
	// EvMachineCheck fires when a pair's persistent fingerprint
	// divergence escalated to a machine check (Pair is set).
	EvMachineCheck
	// EvPABException fires when the PAB denied a performance-mode
	// store on one of the pair's cores (Pair is set).
	EvPABException
)

// String names the event kind.
func (k EventKind) String() string {
	switch k {
	case EvTimer:
		return "timer"
	case EvMachineCheck:
		return "machine-check"
	case EvPABException:
		return "pab-exception"
	default:
		return "?"
	}
}

// Event is one decision point, timestamped in chip cycles. Pair is the
// affected pair index, or -1 for chip-wide events (timers).
type Event struct {
	Kind  EventKind
	Pair  int
	Cycle sim.Cycle
}

// Topology tells a policy what it schedules: how many core pairs the
// chip has, how many roster groups the system kind pre-built (one per
// gang-scheduled guest set), and the configured gang timeslice.
type Topology struct {
	Pairs     int
	Groups    int
	Timeslice sim.Cycle
}

// Policy decides, at scheduling boundaries, what every core pair runs
// next. Implementations are stateful per simulation run and must be
// deterministic: the same event/status sequence must produce the same
// decisions (no wall clock, no randomness outside seeded generators).
// A Policy instance must not be shared between chips.
type Policy interface {
	// Name returns the policy's canonical, parseable name: Parse(Name())
	// yields an equivalent policy.
	Name() string
	// Reset prepares the policy for one run and returns the initial
	// per-pair assignments (length t.Pairs). The chip applies them
	// directly, with no transition cost, at cycle 0.
	Reset(t Topology) []Assignment
	// NextEventAt returns the next cycle at which the policy wants an
	// EvTimer decision, or sim.Never for purely event-driven policies.
	// It is re-read after every Decide.
	NextEventAt() sim.Cycle
	// Decide handles one event and returns the desired per-pair
	// assignments, or nil for "no change". The chip applies the
	// returned assignments to every pair whose plan would actually
	// change and whose transition machinery is free; assignments for
	// busy pairs are dropped (the policy sees the divergence in the
	// next PairStatus and may re-issue).
	//
	// The returned slice is scratch owned by the policy: it may be
	// overwritten by the next Decide (or Reset), so callers must copy
	// any assignments they retain past the call.
	Decide(ev Event, pairs []PairStatus) []Assignment
	// WantsFaults reports whether the chip should forward protection
	// events (EvMachineCheck, EvPABException) to Decide. Policies that
	// ignore faults return false so fault campaigns on static systems
	// pay no policy overhead.
	WantsFaults() bool
}
