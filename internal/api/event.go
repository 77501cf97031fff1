package api

import (
	"time"

	"repro/internal/core"
)

// EventType classifies one run-journal event. The vocabulary is
// stable: JSONL journals are read across builds.
type EventType string

const (
	// EventExpanded opens a run: the spec expanded to Total cells at
	// Scale. Always the first event (Cell = -1). Adaptive runs also
	// carry the normalized Precision block.
	EventExpanded EventType = "expanded"
	// EventCacheHit marks a cell (or, adaptively, one wave of a cell)
	// served from the result cache without simulation.
	EventCacheHit EventType = "cache_hit"
	// EventLeased marks a cell leased to a worker (Attempt starts at 1).
	EventLeased EventType = "leased"
	// EventStarted marks a cell beginning simulation. For distributed
	// runs it coincides with the lease grant: both are journaled when
	// the worker accepts the job (answers 200), although the job may
	// wait there for a free capacity slot.
	EventStarted EventType = "started"
	// EventHeartbeatMissed marks a lost lease: the worker accepted the
	// job, then its response went silent for longer than the lease TTL
	// or ended without a result (the worker died or was stopped). The
	// attempt is spent and the cell returns to the queue.
	EventHeartbeatMissed EventType = "heartbeat_missed"
	// EventReassigned marks a lease grant that retries a previously
	// attempted cell (always paired with an EventLeased of Attempt > 1).
	EventReassigned EventType = "reassigned"
	// EventCompleted marks a cell's simulation finishing, in completion
	// order, with the attempt's wall time.
	EventCompleted EventType = "completed"
	// EventFailed marks a failed attempt (Cell >= 0, Error set) or —
	// with Cell = -1 — the run failing terminally.
	EventFailed EventType = "failed"
	// EventMerged marks a cell's result entering the deterministic
	// merged prefix, in expansion order, carrying the full Job and
	// Metrics payload. Exactly one per cell, Cell strictly increasing.
	EventMerged EventType = "merged"
	// EventCanceled marks the run canceled (Cell = -1). Terminal.
	EventCanceled EventType = "canceled"
	// EventWaveScheduled marks the sequential-stopping planner
	// scheduling wave Wave (Trials trials) of an adaptive cell; the
	// event carries the cell's Wilson half-width going into the wave
	// (HalfWidth, 0 before any trials ran) so a stream consumer can
	// watch each interval tighten.
	EventWaveScheduled EventType = "wave_scheduled"
	// EventCellRetired marks an adaptive cell leaving the schedule:
	// its interval met the target half-width (or the cell hit its
	// MaxTrials cap — then Capped is set). Trials is the cell's total
	// trial count; exactly one per adaptive cell, always before the
	// cell's EventMerged.
	EventCellRetired EventType = "cell_retired"
)

// Event is one journal record. Cell is the job's index in expansion
// order, or -1 for run-level events. Only EventMerged carries the Job
// and Metrics payloads — every other event stays compact (Key labels
// the cell). In adaptive runs, cell-scoped events additionally carry
// the wave coordinate of the attempt they describe.
//
// AppendJSON is the encoder: it writes every journal line and SSE
// frame. json.Marshal of an Event must yield the same bytes, and the
// differential test and FuzzEventJSON hold the two together, so a field
// added here (or to anything an Event carries) needs its line in
// AppendJSON too.
type Event struct {
	Seq     int64         `json:"seq"`
	Time    time.Time     `json:"time"`
	Type    EventType     `json:"type"`
	Run     string        `json:"run,omitempty"`
	Cell    int           `json:"cell"`
	Key     string        `json:"key,omitempty"`
	Worker  string        `json:"worker,omitempty"`
	Attempt int           `json:"attempt,omitempty"`
	WallMS  int64         `json:"wall_ms,omitempty"`
	Error   string        `json:"error,omitempty"`
	Total   int           `json:"total,omitempty"`
	Scale   *Scale        `json:"scale,omitempty"`
	Hit     bool          `json:"hit,omitempty"`
	Fp      string        `json:"fp,omitempty"`
	Job     *Job          `json:"job,omitempty"`
	Metrics *core.Metrics `json:"metrics,omitempty"`

	// Adaptive-precision fields (PR 9). Wave is the 1-based wave index
	// of the attempt the event describes (0 on non-wave events);
	// Trials and HalfWidth annotate wave_scheduled/cell_retired;
	// Precision rides on the expanded event of an adaptive run.
	Wave      int        `json:"wave,omitempty"`
	Trials    int        `json:"trials,omitempty"`
	HalfWidth float64    `json:"half_width,omitempty"`
	Capped    bool       `json:"capped,omitempty"`
	Precision *Precision `json:"precision,omitempty"`
}
