package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/api"
	"repro/internal/cache"
	"repro/internal/core"
)

// WorkerOptions configures a Worker.
type WorkerOptions struct {
	// Name identifies the worker to coordinators (lease requests,
	// failure backoff, logs). Required.
	Name string
	// Capacity bounds concurrent leased jobs across all attachments;
	// default 1.
	Capacity int
	// Cache, when non-nil, is the worker's local result cache: leased
	// jobs it already holds complete without re-simulating, and fresh
	// results are stored. Optional — the coordinator caches too.
	Cache Cache
	// Poll is the idle lease-poll interval; default 250ms.
	Poll time.Duration
	// OnJobTime, when non-nil, is called with each simulated leased
	// job's wall time (local cache hits excluded). It runs on pull
	// goroutines and must be concurrency-safe.
	OnJobTime func(time.Duration)
	// TraceDir / TraceMatch mirror Options.TraceDir / TraceMatch:
	// flight-recorder traces for leased jobs this worker simulates.
	// Never part of the job identity or the completion payload.
	TraceDir   string
	TraceMatch string
	// OnTrace mirrors Options.OnTrace: per traced job, the flight
	// recorder's event and dropped-event counts. Concurrency-safe.
	OnTrace func(total, dropped uint64)
}

// Worker is the fleet-side runtime behind mmmd -worker: it serves a
// /v1/attach endpoint, and for every attached coordinator runs pull
// loops that lease jobs, heartbeat while simulating, and complete
// with canonical metrics plus the job's cache key. A worker holds no
// campaign state: between jobs it is a blank simulator, so killing
// one costs at most its in-flight leases (which the coordinator
// expires and reassigns).
type Worker struct {
	opts  WorkerOptions
	check string
	slots chan struct{}

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu          sync.Mutex
	attachments map[string]context.CancelFunc // board URL -> detach

	jobsDone    atomic.Uint64
	jobsFailed  atomic.Uint64
	leasesLost  atomic.Uint64
	attachTotal atomic.Uint64
}

// NewWorker returns a stopped-when-Stop'd worker ready to accept
// attachments.
func NewWorker(opts WorkerOptions) *Worker {
	if opts.Name == "" {
		opts.Name = "worker"
	}
	if opts.Capacity < 1 {
		opts.Capacity = 1
	}
	if opts.Poll <= 0 {
		opts.Poll = 250 * time.Millisecond
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &Worker{
		opts:        opts,
		check:       protocolCheck(),
		slots:       make(chan struct{}, opts.Capacity),
		ctx:         ctx,
		cancel:      cancel,
		attachments: make(map[string]context.CancelFunc),
	}
}

// Handler routes the worker's coordinator-facing endpoints. Attach is
// served under /v1, where protoVersion 2 coordinators post. The
// board's own lease endpoints are not versioned this way — they are
// ephemeral per-campaign internals, guarded by the protocol check
// token instead.
func (w *Worker) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(rw http.ResponseWriter, _ *http.Request) {
		writeJSONTo(rw, http.StatusOK, map[string]string{"status": "ok", "worker": w.opts.Name})
	})
	mux.HandleFunc("POST "+api.PathPrefix+"/attach", w.handleAttach)
	return mux
}

// WorkerStats is a point-in-time snapshot of a worker's counters, for
// metric exposition.
type WorkerStats struct {
	Name        string
	Capacity    int
	Attachments int
	AttachTotal uint64
	JobsDone    uint64
	JobsFailed  uint64
	LeasesLost  uint64
}

// Stats snapshots the worker's counters.
func (w *Worker) Stats() WorkerStats {
	w.mu.Lock()
	attached := len(w.attachments)
	w.mu.Unlock()
	return WorkerStats{
		Name:        w.opts.Name,
		Capacity:    w.opts.Capacity,
		Attachments: attached,
		AttachTotal: w.attachTotal.Load(),
		JobsDone:    w.jobsDone.Load(),
		JobsFailed:  w.jobsFailed.Load(),
		LeasesLost:  w.leasesLost.Load(),
	}
}

func (w *Worker) handleAttach(rw http.ResponseWriter, req *http.Request) {
	var ar api.AttachRequest
	if !decodeBody(rw, req, maxControlBody, "attach request", &ar) {
		return
	}
	if err := w.Attach(ar.Coordinator, ar.Check); err != nil {
		httpErrorJSON(rw, http.StatusConflict, "%v", err)
		return
	}
	writeJSONTo(rw, http.StatusOK, api.AttachResponse{
		Worker:   w.opts.Name,
		Capacity: w.opts.Capacity,
		Check:    w.check,
	})
}

// Attach starts pulling jobs from the board at boardURL. check is the
// coordinator's compatibility token; an incompatible build is refused
// outright — a mixed fleet would break byte-identical determinism.
// Attaching to an already-attached board is a no-op.
func (w *Worker) Attach(boardURL, check string) error {
	if check != w.check {
		return fmt.Errorf("campaign: worker %s refuses attach: %s",
			w.opts.Name, explainCheckMismatch(w.check, check))
	}
	if boardURL == "" {
		return fmt.Errorf("campaign: attach without coordinator URL")
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.ctx.Err() != nil {
		return fmt.Errorf("campaign: worker %s is stopped", w.opts.Name)
	}
	if _, ok := w.attachments[boardURL]; ok {
		return nil
	}
	ctx, cancel := context.WithCancel(w.ctx)
	w.attachments[boardURL] = cancel
	w.attachTotal.Add(1)
	for i := 0; i < w.opts.Capacity; i++ {
		w.wg.Add(1)
		go w.pull(ctx, boardURL)
	}
	return nil
}

// detach ends an attachment (idempotent).
func (w *Worker) detach(boardURL string) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if cancel, ok := w.attachments[boardURL]; ok {
		delete(w.attachments, boardURL)
		cancel()
	}
}

// Stop abandons every attachment and in-flight lease. In-flight
// simulations finish their current job but their results are
// discarded (the coordinator has revoked or will expire the leases —
// and per-job determinism means the reassigned runs are identical).
// The cancel happens under mu so it cannot interleave with Attach's
// liveness check: after Stop begins, a concurrent Attach either
// already spawned its pull loops (and Wait covers them) or observes
// the dead context and refuses.
func (w *Worker) Stop() {
	w.mu.Lock()
	w.cancel()
	w.mu.Unlock()
	w.wg.Wait()
}

// errBudget is how many consecutive transport failures a pull loop
// tolerates before concluding the coordinator is gone and detaching.
const errBudget = 5

// pull is one lease loop: lease, simulate under heartbeat, complete,
// repeat — until the board reports done (410), the attachment is
// cancelled, or the coordinator stops answering.
func (w *Worker) pull(ctx context.Context, boardURL string) {
	defer w.wg.Done()
	// Per-loop scratch, like the engine's per-worker recycler: chips
	// built for consecutive jobs reuse the cache hierarchy's line
	// arrays. Confined to this goroutine.
	scratch := cache.NewRecycler()
	errs := 0
	for {
		select {
		case <-ctx.Done():
			return
		case w.slots <- struct{}{}:
		}
		state, err := w.leaseAndRun(ctx, boardURL, scratch)
		<-w.slots
		switch {
		case err != nil:
			errs++
			if errs >= errBudget {
				w.detach(boardURL)
				return
			}
			w.sleep(ctx, w.opts.Poll)
		case state == boardOver:
			w.detach(boardURL)
			return
		case state == boardIdle:
			errs = 0
			w.sleep(ctx, w.opts.Poll)
		default:
			errs = 0
		}
	}
}

type boardState int

const (
	boardBusy boardState = iota // leased and ran a job
	boardIdle                   // nothing to lease right now
	boardOver                   // board closed: campaign done or cancelled
)

// leaseAndRun performs one lease round trip and, when a job was
// handed out, runs it to completion.
func (w *Worker) leaseAndRun(ctx context.Context, boardURL string, scratch *cache.Recycler) (boardState, error) {
	var lr api.LeaseResponse
	code, err := w.post(ctx, boardURL+"/lease",
		api.LeaseRequest{Worker: w.opts.Name, Check: w.check}, &lr)
	if err != nil {
		return boardIdle, err
	}
	switch code {
	case http.StatusOK:
	case http.StatusNoContent:
		return boardIdle, nil
	case http.StatusGone:
		return boardOver, nil
	default:
		return boardIdle, fmt.Errorf("campaign: lease: unexpected status %d", code)
	}

	// Verify the coordinator's derivations before burning cycles: a
	// seed or fingerprint skew means the builds disagree about what
	// this job *is*, and the result must not enter any cache.
	comp := api.CompleteRequest{LeaseID: lr.LeaseID, Worker: w.opts.Name, Fingerprint: lr.Fingerprint}
	if got := lr.Job.SimSeed(); got != lr.SimSeed {
		comp.Error = fmt.Sprintf("derived-seed mismatch: worker %d, coordinator %d", got, lr.SimSeed)
	} else if got := lr.Job.Fingerprint(lr.Scale); got != lr.Fingerprint {
		comp.Error = fmt.Sprintf("fingerprint mismatch: worker %s, coordinator %s", got, lr.Fingerprint)
	} else {
		m, err := w.runLeased(ctx, boardURL, lr, scratch)
		if err != nil {
			comp.Error = err.Error()
		} else if m == nil {
			// Lease lost mid-run (board revoked it); nothing to send.
			w.leasesLost.Add(1)
			return boardBusy, nil
		} else {
			comp.Metrics = m
		}
	}
	if comp.Error != "" {
		w.jobsFailed.Add(1)
	} else {
		w.jobsDone.Add(1)
	}
	code, err = w.post(ctx, boardURL+"/complete", comp, nil)
	if err != nil {
		return boardBusy, err
	}
	if code == http.StatusGone {
		// Completed into a closed board or a revoked lease: result
		// discarded there; treat as board-over only if lease revocation
		// came from closure — the next lease poll disambiguates.
		w.leasesLost.Add(1)
	}
	return boardBusy, nil
}

// runLeased simulates the leased job under a heartbeat. It returns
// (nil, nil) when the lease was revoked mid-run.
func (w *Worker) runLeased(ctx context.Context, boardURL string, lr api.LeaseResponse, scratch *cache.Recycler) (*core.Metrics, error) {
	if w.opts.Cache != nil {
		if m, ok := w.opts.Cache.Get(lr.Fingerprint); ok {
			return &m, nil
		}
	}

	// Heartbeat at a third of the TTL until the job finishes; a 410
	// marks the lease revoked so the result is discarded. The interval
	// is clamped: a degenerate wire-supplied TTL (0 or sub-3ms) must
	// not panic time.NewTicker and take the worker process down.
	var revoked atomic.Bool
	hbStop := make(chan struct{})
	hbDone := make(chan struct{})
	hbEvery := time.Duration(lr.TTLMS) * time.Millisecond / 3
	if hbEvery < time.Millisecond {
		hbEvery = time.Millisecond
	}
	w.wg.Add(1)
	go func() {
		defer w.wg.Done()
		defer close(hbDone)
		t := time.NewTicker(hbEvery)
		defer t.Stop()
		for {
			select {
			case <-hbStop:
				return
			case <-ctx.Done():
				return
			case <-t.C:
				code, err := w.post(ctx, boardURL+"/heartbeat",
					api.HeartbeatRequest{LeaseID: lr.LeaseID}, nil)
				if err == nil && code == http.StatusGone {
					revoked.Store(true)
					return
				}
			}
		}
	}()

	h := jobHooks{w.opts.TraceDir, w.opts.TraceMatch, w.opts.OnJobTime, w.opts.OnTrace}
	m, err := h.execute(lr.Scale, lr.Job, scratch)
	close(hbStop)
	<-hbDone

	if err != nil {
		return nil, err
	}
	if revoked.Load() || ctx.Err() != nil {
		return nil, nil
	}
	if w.opts.Cache != nil {
		if err := w.opts.Cache.Put(lr.Fingerprint, m); err != nil {
			return nil, err
		}
	}
	return &m, nil
}

// post sends one JSON request and decodes a JSON body into out (when
// non-nil and the response carries one).
func (w *Worker) post(ctx context.Context, url string, in, out any) (int, error) {
	body, err := json.Marshal(in)
	if err != nil {
		return 0, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := fleetClient.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return resp.StatusCode, err
		}
	}
	return resp.StatusCode, nil
}

// sleep waits d or until ctx is done.
func (w *Worker) sleep(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
	case <-t.C:
	}
}
