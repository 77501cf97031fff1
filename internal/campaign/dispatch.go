package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"time"

	"repro/internal/api"
)

// DispatchOptions configures a Dispatcher.
type DispatchOptions struct {
	// Workers lists the worker base URLs ("http://host:port"); use
	// ParseWorkerList to build it from a -workers flag.
	Workers []string
	// Cache, when non-nil, is consulted before dispatch (hits never
	// leave the coordinator) and filled as remote completions arrive,
	// so mixed local/remote reruns resume for free.
	Cache Cache
	// OnProgress mirrors Options.OnProgress: called in completion
	// order with running totals.
	OnProgress func(done, total, hits int)
	// Addr is the coordinator's listen address for the per-campaign
	// job board; default "127.0.0.1:0" (an ephemeral port).
	Addr string
	// Advertise overrides the board URL handed to workers, for fleets
	// where the coordinator's listen address is not the address
	// workers can reach (NAT, containers). Default: the listener's
	// own address.
	Advertise string
	// LeaseTTL bounds how long a worker may go silent before its
	// leases are revoked and reassigned; default 15s.
	LeaseTTL time.Duration
	// MaxInflight bounds outstanding leases across the fleet; default
	// 4 per worker.
	MaxInflight int
	// MaxAttempts bounds how often one job may fail (error or lease
	// expiry) before the campaign fails; default 3.
	MaxAttempts int
	// StallTimeout fails the campaign when no worker has contacted
	// the board at all for this long — the whole fleet died or lost
	// the network, and waiting further cannot make progress. Default
	// 2 minutes. (An idle poll counts as contact: a live fleet never
	// stalls, however slow its jobs, because workers heartbeat and
	// poll continuously.)
	StallTimeout time.Duration
	// Obs, when non-nil, instruments the lease protocol (grants,
	// expiries, reassignments, job latencies, worker liveness).
	Obs *FleetObs
	// Journal, when non-nil, receives the run's lifecycle events —
	// expansion, cache hits, lease grants/reassignments, completions
	// and merges — mirroring Options.Journal for distributed runs.
	Journal *Journal
}

// Dispatcher is the remote Runner: it serves a campaign's board to a
// fleet of mmmd workers over HTTP and merges the completions — in
// expansion order, through the same content-addressed cache — so a
// sharded campaign is byte-identical to a local one. Around the board
// it keeps the fleet's concerns: attaching the workers, reaping
// expired leases, backing off failing workers and detecting a lost
// fleet. It is stateless across Run calls (each run gets its own board
// and listener) and safe for concurrent Runs.
type Dispatcher struct {
	opts DispatchOptions
}

// NewDispatcher returns a dispatcher over the given fleet.
func NewDispatcher(opts DispatchOptions) *Dispatcher {
	if opts.Addr == "" {
		opts.Addr = "127.0.0.1:0"
	}
	if opts.LeaseTTL <= 0 {
		opts.LeaseTTL = 15 * time.Second
	}
	if opts.MaxInflight <= 0 {
		opts.MaxInflight = 4 * len(opts.Workers)
		if opts.MaxInflight < 1 {
			opts.MaxInflight = 1
		}
	}
	if opts.MaxAttempts <= 0 {
		opts.MaxAttempts = 3
	}
	if opts.StallTimeout <= 0 {
		opts.StallTimeout = 2 * time.Minute
	}
	return &Dispatcher{opts: opts}
}

// Run implements Runner. Cache hits are resolved on the coordinator;
// the rest go on the board, the fleet is invited to pull, and the call
// blocks until every job completed, one failed terminally, or ctx was
// cancelled — in which case every outstanding lease is revoked before
// returning, so no worker's late result can be double-counted by a
// successor run (re-running simply resumes from the cache).
func (d *Dispatcher) Run(ctx context.Context, sc Scale, jobs []Job) (*ResultSet, error) {
	rs, _, err := d.runPlan(ctx, fixedPlan(sc, jobs))
	return rs, err
}

// RunSpec executes a whole campaign spec across the fleet: a
// fixed-batch spec dispatches exactly as Run does; a spec with a
// Precision block runs adaptively, the board re-leasing capacity freed
// by retired cells to the widest remaining intervals.
func (d *Dispatcher) RunSpec(ctx context.Context, sc Scale, spec Spec) (*ResultSet, error) {
	p, err := newPlan(sc, spec)
	if err != nil {
		return nil, err
	}
	rs, _, err := d.runPlan(ctx, p)
	return rs, err
}

// runPlan runs p to its end on a new board, which it also returns so
// tests can check that no lease outlives the run.
func (d *Dispatcher) runPlan(ctx context.Context, p *plan) (*ResultSet, *board, error) {
	if len(d.opts.Workers) == 0 {
		return nil, nil, fmt.Errorf("campaign: dispatcher has no workers")
	}
	start := time.Now()
	b := newBoard(p, boardOptions{
		cache:       d.opts.Cache,
		journal:     d.opts.Journal,
		fleet:       d.opts.Obs,
		onProgress:  d.opts.OnProgress,
		ttl:         d.opts.LeaseTTL,
		maxInflight: d.opts.MaxInflight,
		maxAttempts: d.opts.MaxAttempts,
	})
	if !b.isClosed() {
		d.serve(ctx, b)
	}
	rs, err := b.result(ctx, start)
	return rs, b, err
}

// serve runs one board to its end: listen, invite the fleet to pull,
// and reap expired leases (watching for total fleet loss) until the
// board closes. Every failure closes the board with its error.
func (d *Dispatcher) serve(ctx context.Context, b *board) {
	ln, err := net.Listen("tcp", d.opts.Addr)
	if err != nil {
		b.close(fmt.Errorf("campaign: coordinator listen: %w", err))
		return
	}
	srv := &http.Server{Handler: b.handler()}
	go func() { _ = srv.Serve(ln) }() // Serve returns once Close tears the listener down
	defer srv.Close()

	boardURL := d.opts.Advertise
	if boardURL == "" {
		boardURL = "http://" + ln.Addr().String()
	}
	attached := 0
	var lastErr error
	for _, w := range d.opts.Workers {
		if err := attachWorker(ctx, w, boardURL); err != nil {
			lastErr = err
			continue
		}
		attached++
	}
	if attached == 0 {
		b.close(fmt.Errorf("campaign: no worker attached: %w", lastErr))
		return
	}

	// Reap expired leases — and watch for total fleet loss — until
	// the board closes.
	reapDone := make(chan struct{})
	go func() {
		defer close(reapDone)
		t := time.NewTicker(d.opts.LeaseTTL / 4)
		defer t.Stop()
		for {
			select {
			case <-b.doneCh:
				return
			case now := <-t.C:
				b.reap(now)
				if idle := b.idleFor(now); idle > d.opts.StallTimeout {
					b.close(fmt.Errorf(
						"campaign: no worker contact for %v: fleet lost", idle.Round(time.Second)))
					return
				}
			}
		}
	}()

	select {
	case <-ctx.Done():
		// Revoke everything in flight *before* returning: a
		// SIGTERM'd coordinator must leave no orphaned leases, and
		// any completion racing in after this point is rejected
		// with 410 and discarded.
		b.close(ctx.Err())
	case <-b.doneCh:
	}
	<-reapDone
}

// attachWorker invites one worker to pull from the board.
func attachWorker(ctx context.Context, workerURL, boardURL string) error {
	body, err := json.Marshal(api.AttachRequest{Coordinator: boardURL, Check: protocolCheck()})
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		workerURL+api.PathPrefix+"/attach", bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := attachClient.Do(req)
	if err != nil {
		return fmt.Errorf("campaign: attach %s: %w", workerURL, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var e struct {
			Error string `json:"error"`
		}
		_ = json.NewDecoder(resp.Body).Decode(&e)
		return fmt.Errorf("campaign: attach %s: %d %s", workerURL, resp.StatusCode, e.Error)
	}
	return nil
}

// attachClient bounds how long a dead worker can stall campaign
// startup.
var attachClient = &http.Client{Timeout: 10 * time.Second}
