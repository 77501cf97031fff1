package campaign

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/core"
)

// DispatchOptions configures a Dispatcher.
type DispatchOptions struct {
	// Workers lists the worker base URLs ("http://host:port"); use
	// ParseWorkerList to build it from a -workers flag.
	Workers []string
	// Cache, when non-nil, is consulted before dispatch (hits never
	// leave the coordinator) and filled as remote results arrive, so
	// mixed local/remote reruns resume for free.
	Cache Cache
	// OnProgress mirrors Options.OnProgress: called in completion
	// order with running totals.
	OnProgress func(done, total, hits int)
	// LeaseTTL bounds how long a worker's response may go silent
	// before its lease counts as lost and the job is reassigned;
	// default 15s. Workers write a keepalive every third of it.
	LeaseTTL time.Duration
	// Obs, when non-nil, instruments the fleet (grants, lost leases,
	// reassignments, job latencies, worker liveness).
	Obs *FleetObs
	// Journal, when non-nil, receives the run's lifecycle events —
	// expansion, cache hits, lease grants/reassignments, completions
	// and merges — mirroring Options.Journal for distributed runs.
	Journal *Journal
}

// fleetAttempts bounds how often one job may fail (an error or a lost
// lease) before the campaign fails; maxWorkerSlots bounds the slots one
// worker gets, whatever capacity it reports; errBudget is how many
// requests in a row a worker may refuse before it is dropped.
const (
	fleetAttempts  = 3
	maxWorkerSlots = 64
	errBudget      = 5
)

// backoffBase is a worker's backoff after a failure; it doubles per
// consecutive failure up to backoffMax.
const (
	backoffBase = 500 * time.Millisecond
	backoffMax  = 30 * time.Second
)

// Dispatcher is the remote Runner: the Engine's pool loop with remote
// slots. For every capacity slot a worker reports it runs one pool
// goroutine, which takes a lease from the campaign's board, pushes the
// job to the worker and finishes the lease with the result — merged in
// expansion order through the same content-addressed cache, so a
// sharded campaign is byte-identical to a local one. It is stateless
// across RunSpec calls and safe for concurrent runs.
type Dispatcher struct {
	opts DispatchOptions
}

// NewDispatcher returns a dispatcher over the given fleet.
func NewDispatcher(opts DispatchOptions) *Dispatcher {
	if opts.LeaseTTL <= 0 {
		opts.LeaseTTL = 15 * time.Second
	}
	return &Dispatcher{opts: opts}
}

// RunSpec implements Runner across the fleet. Cache hits are resolved
// on the coordinator, so a run the cache fully serves contacts no
// worker; the rest are pushed to the fleet, and the call blocks until
// every cell retired, one job failed terminally, every worker was
// dropped, or ctx was cancelled. Every in-flight request is aborted
// before RunSpec returns, so no worker's late result can be
// double-counted by a successor run (re-running simply resumes from
// the cache). A spec with a Precision block runs adaptively.
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
	return runPool(ctx, p, boardOptions{
		cache:       d.opts.Cache,
		journal:     d.opts.Journal,
		fleet:       d.opts.Obs,
		onProgress:  d.opts.OnProgress,
		maxAttempts: fleetAttempts,
	}, d.pool)
}

// pool runs every worker's slots until the board closes, aborting the
// slots' requests once it has. It returns once every slot has; when
// that happens before the board closes, every worker was dropped and
// the error names the last reason.
func (d *Dispatcher) pool(ctx context.Context, b *board) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	go func() {
		select {
		case <-b.doneCh:
			cancel()
		case <-ctx.Done():
		}
	}()
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		last error
	)
	drop := func(err error) {
		mu.Lock()
		last = err
		mu.Unlock()
	}
	for _, url := range d.opts.Workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			info, err := describeWorker(ctx, url, d.opts.LeaseTTL)
			if err != nil {
				drop(err)
				return
			}
			w := &fleetWorker{url: url, name: info.Worker}
			for range min(max(info.Capacity, 1), maxWorkerSlots) {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if err := d.slot(ctx, b, w); err != nil {
						drop(err)
					}
				}()
			}
		}()
	}
	wg.Wait()
	return fmt.Errorf("campaign: every worker dropped: %w", last)
}

// fleetClient carries every request to a worker. Contexts bound each
// one, and a redirect is an answer like any other non-200: the
// coordinator dials only the workers it was given.
var fleetClient = &http.Client{
	CheckRedirect: func(*http.Request, []*http.Request) error { return http.ErrUseLastResponse },
}

// describeWorker reads a worker's GET /v1/worker and refuses a worker
// whose build is incompatible with the coordinator's.
func describeWorker(ctx context.Context, url string, timeout time.Duration) (api.WorkerInfo, error) {
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	var info api.WorkerInfo
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+api.PathPrefix+"/worker", nil)
	if err != nil {
		return info, err
	}
	resp, err := fleetClient.Do(req)
	if err != nil {
		return info, fmt.Errorf("campaign: worker %s: %w", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return info, fmt.Errorf("campaign: worker %s: %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, maxControlBody)).Decode(&info); err != nil {
		return info, fmt.Errorf("campaign: worker %s: %w", url, err)
	}
	if check := protocolCheck(); info.Check != check {
		return info, fmt.Errorf("campaign: worker %s (%s) is incompatible: %s",
			url, info.Worker, explainCheckMismatch(check, info.Check))
	}
	return info, nil
}

// runEnd is how a pushed job ended.
type runEnd int

const (
	runRefused runEnd = iota // never accepted: a dial error or a non-200 answer
	runLost                  // accepted, then silent past the TTL or ended without a result
	runResult                // a result line: the job's metrics or the worker's error
)

// fleetWorker is one worker as its slots share it: where it is, its
// name, and the backoff and refusal count that apply to all its slots.
type fleetWorker struct {
	url, name string

	mu       sync.Mutex
	failures int       // jobs in a row that did not end with a result
	refused  int       // requests in a row the worker refused
	last     error     // the last refusal
	until    time.Time // no slot pushes a job before this
}

// pause reports how long the worker's slots must still back off, or
// the worker's last refusal once it has been dropped.
func (w *fleetWorker) pause() (time.Duration, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.refused >= errBudget {
		return 0, w.last
	}
	return time.Until(w.until), nil
}

// ended records how one of the worker's jobs ended: a refusal counts
// toward dropping the worker, and every failure backs its slots off.
func (w *fleetWorker) ended(end runEnd, err error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if end == runRefused {
		w.refused++
		w.last = err
	} else {
		w.refused = 0
	}
	if end == runResult && err == nil {
		w.failures = 0
		return
	}
	w.failures++
	w.until = time.Now().Add(min(backoffBase<<min(w.failures-1, 10), backoffMax))
}

// slot is one of a worker's capacity slots: it takes a lease, pushes
// the job and ends the lease by how the job ended, until the board
// closes (nil) or the worker is dropped (its last refusal).
func (d *Dispatcher) slot(ctx context.Context, b *board, w *fleetWorker) error {
	for {
		wait, err := w.pause()
		if err != nil {
			return err
		}
		if wait > 0 {
			t := time.NewTimer(wait)
			select {
			case <-ctx.Done():
				t.Stop()
				return nil
			case <-t.C:
			}
		}
		l := b.take(w.name)
		if l == nil {
			return nil
		}
		m, end, err := d.send(ctx, b, l, w.url)
		switch end {
		case runRefused:
			b.release(l)
		case runLost:
			b.lost(l)
		default:
			b.finish(l, m, err)
		}
		w.ended(end, err)
	}
}

// send pushes l's job to the worker as one POST /v1/run and reads the
// response to its end. The request is aborted once the response stays
// silent for the lease TTL; a lease the worker accepted is granted on
// the board at that point.
func (d *Dispatcher) send(ctx context.Context, b *board, l *lease, url string) (core.Metrics, runEnd, error) {
	s := l.slot
	body, err := json.Marshal(api.RunRequest{
		Check:       protocolCheck(),
		Job:         s.job,
		Scale:       b.plan.sc,
		SimSeed:     s.job.SimSeed(),
		Fingerprint: s.fp,
		TTLMS:       d.opts.LeaseTTL.Milliseconds(),
	})
	if err != nil {
		return core.Metrics{}, runRefused, err
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	silence := time.AfterFunc(d.opts.LeaseTTL, cancel)
	defer silence.Stop()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+api.PathPrefix+"/run", bytes.NewReader(body))
	if err != nil {
		return core.Metrics{}, runRefused, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := fleetClient.Do(req)
	if err != nil {
		return core.Metrics{}, runRefused, fmt.Errorf("campaign: worker %s: %w", l.worker, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var e api.ErrorResponse
		_ = json.NewDecoder(io.LimitReader(resp.Body, maxControlBody)).Decode(&e)
		return core.Metrics{}, runRefused, fmt.Errorf("campaign: worker %s: %d %s", l.worker, resp.StatusCode, e.Error)
	}
	silence.Reset(d.opts.LeaseTTL)
	b.accept(l)
	return readRun(resp.Body, s.fp, func() {
		silence.Reset(d.opts.LeaseTTL)
		d.opts.Obs.Heartbeat(l.worker)
	})
}

// readRun reads a worker's response to a run request: keepalive
// newlines, each of which calls alive, then one result line. It ends as
// runLost when the response ends or breaks without a result line, and
// as runResult otherwise: the job's metrics, or an error for a line
// that reports one, does not decode, names another fingerprint than fp
// or runs past maxCompletionBody — such a result never enters a cache.
func readRun(r io.Reader, fp string, alive func()) (core.Metrics, runEnd, error) {
	br := bufio.NewReader(r)
	var line []byte
	for {
		frag, err := br.ReadSlice('\n')
		line = append(line, frag...)
		switch {
		case len(line) > maxCompletionBody:
			return core.Metrics{}, runResult, fmt.Errorf("result line over %d bytes", maxCompletionBody)
		case errors.Is(err, bufio.ErrBufferFull):
			continue
		case err != nil:
			return core.Metrics{}, runLost, err
		case len(line) == 1:
			alive()
			line = line[:0]
			continue
		}
		var res api.RunResult
		if err := json.Unmarshal(line, &res); err != nil {
			return core.Metrics{}, runResult, fmt.Errorf("bad result line: %w", err)
		}
		switch {
		case res.Error != "":
			return core.Metrics{}, runResult, errors.New(res.Error)
		case res.Fingerprint != fp || res.Metrics == nil:
			// The worker ran something other than the job it was sent.
			return core.Metrics{}, runResult, fmt.Errorf("fingerprint mismatch: got %q want %q", res.Fingerprint, fp)
		}
		return *res.Metrics, runResult, nil
	}
}
