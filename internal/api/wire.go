package api

import (
	"repro/internal/core"
)

// --- mmmd service bodies -------------------------------------------

// SubmitRequest is the body of POST /v1/campaigns: a named campaign
// plus optional axis, scale and precision overrides.
type SubmitRequest struct {
	// Name selects a registered campaign (GET /v1/catalog lists them).
	Name string `json:"name"`
	// Scale is "default" or "quick"; empty means "default".
	Scale string `json:"scale,omitempty"`
	// Warmup/Measure/Timeslice override individual scale windows.
	// Pointers so that an explicit zero (e.g. a zero-warmup campaign,
	// which the engine supports) is distinguishable from "not set".
	Warmup    *uint64 `json:"warmup,omitempty"`
	Measure   *uint64 `json:"measure,omitempty"`
	Timeslice *uint64 `json:"timeslice,omitempty"`
	// Workloads and Seeds override the sweep axes.
	Workloads []string `json:"workloads,omitempty"`
	Seeds     []uint64 `json:"seeds,omitempty"`
	// Policies overrides the mode-policy axis: each entry is a policy
	// spec (GET /v1/catalog lists the registered names), "" or "static"
	// meaning the kind's default behavior. The campaign's cells are
	// multiplied across the axis. Unknown names are rejected with 400.
	Policies []string `json:"policies,omitempty"`
	// Precision turns the submission into an adaptive-precision run:
	// every cell (which must be a reliability cell) is scheduled in
	// waves under the sequential stopping rule instead of one fixed
	// batch. Targets outside the advertised bounds are rejected with
	// 400 naming the valid range.
	Precision *Precision `json:"precision,omitempty"`
	// Workers overrides the worker fleet ("host:port" or URLs) for
	// this campaign; empty uses the service's -workers default.
	// Campaign jobs are then pushed to the fleet's workers instead of
	// the local pool.
	Workers []string `json:"workers,omitempty"`
	// Local forces local execution even when the service has a
	// default fleet.
	Local bool `json:"local,omitempty"`
}

// RunStatus is the JSON rendering of a run's state (GET
// /v1/campaigns/{id}, and the element of the list/status responses).
// For adaptive runs Jobs/Done count cells, not waves.
type RunStatus struct {
	ID       string `json:"id"`
	Name     string `json:"name"`
	Scale    Scale  `json:"scale"`
	Status   string `json:"status"`
	Jobs     int    `json:"jobs"`
	Done     int    `json:"done"`
	CacheHit int    `json:"cache_hits"`
	Workers  int    `json:"workers,omitempty"`
	Error    string `json:"error,omitempty"`
	WallMS   int64  `json:"wall_ms,omitempty"`
	// Precision echoes the normalized adaptive block of an adaptive
	// submission; nil for fixed-batch runs.
	Precision *Precision `json:"precision,omitempty"`
	// Attribution is the journal-derived wall-clock report, present
	// once the run reaches a terminal state.
	Attribution *Report `json:"attribution,omitempty"`
}

// RunList is the body of GET /v1/campaigns.
type RunList struct {
	Campaigns []RunStatus `json:"campaigns"`
}

// CatalogResponse is the body of GET /v1/catalog: the registered
// campaign names, the mode-policy vocabulary, the precision axis an
// adaptive submission may target, and the full per-campaign axes.
type CatalogResponse struct {
	Names     []string `json:"names"`
	Policies  []string `json:"policies"`
	Precision Axis     `json:"precision"`
	Campaigns []Axes   `json:"campaigns"`
}

// ErrorResponse is the body of every non-2xx mmmd response.
type ErrorResponse struct {
	Error string `json:"error"`
}

// Axes describes a registered campaign's sweep dimensions under its
// default axes, so operators can discover what a campaign runs without
// reading source (served by the catalog endpoint).
type Axes struct {
	Name      string   `json:"name"`
	Kinds     []string `json:"kinds"`
	Workloads []string `json:"workloads"`
	Variants  []string `json:"variants,omitempty"`
	// Policies lists the distinct mode policies the campaign's default
	// expansion sweeps ("static" stands for the default cells).
	Policies    []string `json:"policies,omitempty"`
	Seeds       []uint64 `json:"seeds"`
	Jobs        int      `json:"jobs"`
	Reliability bool     `json:"reliability,omitempty"`
	// Precision is the campaign's default adaptive block, for
	// campaigns registered as adaptive; nil otherwise.
	Precision *Precision `json:"precision,omitempty"`
}

// --- fleet protocol (coordinator -> worker) ------------------------

// WorkerInfo is the body of GET {worker}/v1/worker: what a coordinator
// needs before it pushes jobs to the worker.
type WorkerInfo struct {
	Worker   string `json:"worker"`
	Capacity int    `json:"capacity"`
	// Check is the worker's protocol check token; a coordinator whose
	// own token differs does not use the worker.
	Check string `json:"check"`
}

// RunRequest pushes one job to a worker (POST {worker}/v1/run).
// SimSeed and Fingerprint are the coordinator's derivations; the worker
// recomputes both and reports a mismatch as the job's error, so a
// seed-derivation or fingerprint skew between builds surfaces as an
// explicit error instead of a silently divergent (and wrongly cached)
// simulation.
type RunRequest struct {
	// Check is the coordinator's protocol check token; the worker
	// answers 409 unless it matches its own.
	Check       string `json:"check"`
	Job         Job    `json:"job"`
	Scale       Scale  `json:"scale"`
	SimSeed     uint64 `json:"sim_seed"`
	Fingerprint string `json:"fingerprint"`
	// TTLMS is the coordinator's lease TTL: the worker writes a
	// keepalive newline every third of it until the result is ready.
	TTLMS int64 `json:"ttl_ms"`
}

// RunResult is the last line of a run response: the canonical
// core.Metrics payload (the same JSON the content-addressed cache
// stores) plus the job's cache key, or an error. Exactly one of
// Metrics/Error is set.
type RunResult struct {
	Fingerprint string        `json:"fingerprint"`
	Metrics     *core.Metrics `json:"metrics,omitempty"`
	Error       string        `json:"error,omitempty"`
}
