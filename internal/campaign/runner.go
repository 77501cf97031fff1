package campaign

import "context"

// Runner executes a campaign spec at a scale and returns the ordered
// result set. It is the seam between campaign *definition* (Spec) and
// campaign *execution*: the local bounded worker pool (Engine) and the
// remote fleet dispatcher (Dispatcher) both implement it, so every
// front end — internal/exp tables, mmmbench, the mmmd service — can run
// a sweep on one box or across a worker fleet without caring which. A
// spec without a Precision block runs its expanded jobs, one cell each;
// a spec with one runs adaptively, its jobs scheduled in waves.
//
// Implementations must uphold the engine's contract: Results are in
// expansion order regardless of scheduling, the run stops on the first
// error or context cancellation, and — given the per-job derived seeds
// — the same input produces byte-identical Summarize rows however the
// work was placed.
type Runner interface {
	RunSpec(ctx context.Context, sc Scale, spec Spec) (*ResultSet, error)
}

// Engine and Dispatcher are the two interchangeable executors.
var (
	_ Runner = (*Engine)(nil)
	_ Runner = (*Dispatcher)(nil)
)

// RunSpec executes a campaign spec on r.
func RunSpec(ctx context.Context, r Runner, sc Scale, spec Spec) (*ResultSet, error) {
	return r.RunSpec(ctx, sc, spec)
}
