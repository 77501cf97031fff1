package campaign

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/core"
)

// board is the one scheduling core every campaign runs on, local or
// distributed. It holds a plan's schedulable jobs in a priority queue —
// the widest confidence interval first, FIFO among equals, so a fixed
// campaign's jobs (all at one priority) lease in expansion order — and
// hands them out as leases: to the Engine's in-process pool (next and
// finish), or over HTTP to fleet workers a Dispatcher attached (the
// lease/heartbeat/complete endpoints). It resolves cache hits inline
// and runs the one completion path: cache Put, journal, feed the plan,
// merge in expansion order, report progress.
//
// All state transitions happen under mu, and every terminal path
// funnels through closeLocked so doneCh closes exactly once and no
// lease outlives the board. The completion path runs under mu too, as
// a deliberate trade-off: completions arrive at job-runtime
// granularity (seconds), so even a disk-cache write (µs–ms) held under
// the lock is orders of magnitude below the TTL/3 heartbeat budget, and
// in exchange delivery order needs no extra machinery. Journal methods
// take only the journal's own lock, so calling them under mu cannot
// deadlock; the progress callback must not call back into the board.
//
// Each step that journals events — newBoard, next, finish, handleLease,
// handleComplete and reap — flushes the journal once it has released
// mu, so the step's lines reach the journal file in one write.
type board struct {
	plan        *plan
	cache       Cache
	jnl         *Journal
	fobs        *FleetObs
	onProgress  func(done, total, hits int)
	check       string
	ttl         time.Duration
	maxInflight int
	maxAttempts int

	mu          sync.Mutex
	work        *sync.Cond // signalled when a job is queued or the board closes
	lastContact time.Time  // any worker request; stall detection
	pending     []*slot    // jobs awaiting a lease
	leases      map[string]*lease
	workers     map[string]*workerHealth
	inflight    int
	seq         int
	done        int // cells retired and merged
	hits        int // jobs served from the cache
	misses      int // jobs simulated
	closed      bool
	err         error
	doneCh      chan struct{}
}

// boardOptions are an executor's settings for the boards it runs.
type boardOptions struct {
	cache      Cache
	journal    *Journal
	fleet      *FleetObs
	onProgress func(done, total, hits int)
	// ttl is how long a lease lives without a heartbeat; maxInflight
	// caps leases handed out over HTTP. The in-process pool never reaps
	// its leases and bounds them by its size, so it leaves both zero.
	ttl         time.Duration
	maxInflight int
	// maxAttempts is how often one job may fail (error or lease expiry)
	// before the campaign fails.
	maxAttempts int
}

// slot is one schedulable job: a fixed cell's job or one wave of an
// adaptive cell. Its cell, job and fingerprint never change once it is
// queued, so a lease holder reads them without the lock.
type slot struct {
	cell     int
	job      Job
	fp       string // job.Fingerprint(sc)
	prio     float64
	attempts int
}

// lease is one outstanding job assignment. A lease record is kept
// until the board closes; revoked/expired leases stay in the map with
// ended=true so a late heartbeat or complete from the old holder gets
// an explicit 410 instead of corrupting a reassigned job.
type lease struct {
	id      string
	slot    *slot
	worker  string
	granted time.Time
	expires time.Time
	ended   bool
}

// workerHealth tracks per-worker failures for the lease-denial
// backoff: a worker whose leases expire or whose jobs error is denied
// new leases for an exponentially growing window, so a sick box stops
// soaking up reassignments while healthy workers drain the queue.
type workerHealth struct {
	failures     int
	backoffUntil time.Time
}

// backoffBase is the first per-worker denial window; it doubles per
// consecutive failure up to backoffMax.
const (
	backoffBase = 500 * time.Millisecond
	backoffMax  = 30 * time.Second
)

// newBoard journals the plan's expansion and schedules every cell's
// first job. A campaign the cache fully serves is over before the
// board is returned.
func newBoard(p *plan, o boardOptions) *board {
	b := &board{
		plan:        p,
		cache:       o.cache,
		jnl:         o.journal,
		fobs:        o.fleet,
		onProgress:  o.onProgress,
		check:       protocolCheck(),
		ttl:         o.ttl,
		maxInflight: o.maxInflight,
		maxAttempts: o.maxAttempts,
		leases:      make(map[string]*lease),
		workers:     make(map[string]*workerHealth),
		lastContact: time.Now(),
		doneCh:      make(chan struct{}),
	}
	b.work = sync.NewCond(&b.mu)
	defer b.jnl.flush()
	b.jnl.Begin(p.sc, len(p.cells), p.prec)
	b.mu.Lock()
	defer b.mu.Unlock()
	for i := range p.cells {
		b.scheduleLocked(i, p.next(&p.cells[i]))
	}
	if b.done == len(p.cells) {
		b.closeLocked(nil)
	}
	return b
}

// scheduleLocked puts a cell's next job on the board. A cache hit
// resolves inline and chains: a warm cache can retire a cell — or
// carry an adaptive cell several waves forward — without any worker
// seeing it, which is why a warm resume re-runs only unfinished waves.
func (b *board) scheduleLocked(cell int, j Job) {
	for !b.closed {
		half := b.plan.cells[cell].half
		if b.plan.prec != nil {
			b.jnl.WaveScheduled(cell, j, half)
		}
		fp := j.Fingerprint(b.plan.sc)
		if b.cache != nil {
			if m, ok := b.cache.Get(fp); ok {
				b.hits++
				b.jnl.CellDone(cell, j, true, "", 0, 0)
				hit := outcome{Result: Result{Job: j, Metrics: m, CacheHit: true}, fp: fp}
				next, more := b.observeLocked(cell, hit)
				if !more {
					return
				}
				j = next
				continue
			}
		}
		b.pending = append(b.pending, &slot{cell: cell, job: j, fp: fp, prio: half})
		b.work.Signal()
		return
	}
}

// observeLocked feeds one finished job to the plan. When the cell
// retires it journals the retirement (adaptive cells) and the merged
// result, reports progress and closes the board after the last cell;
// otherwise it returns the cell's next job. A plan error fails the
// campaign.
func (b *board) observeLocked(cell int, o outcome) (Job, bool) {
	next, more, err := b.plan.observe(cell, o)
	if err != nil {
		b.closeLocked(err)
		return Job{}, false
	}
	if more {
		return next, true
	}
	c := &b.plan.cells[cell]
	if b.plan.prec != nil {
		b.jnl.CellRetired(cell, c.job, c.trials, c.half, c.capped)
	}
	b.jnl.mergeCell(cell, &c.merged)
	b.done++
	if b.onProgress != nil {
		b.onProgress(b.done, len(b.plan.cells), b.hits)
	}
	if b.done == len(b.plan.cells) {
		b.closeLocked(nil)
	}
	return Job{}, false
}

// leaseLocked hands the highest-priority pending job to worker.
func (b *board) leaseLocked(worker string, now time.Time) *lease {
	best := 0
	for i := 1; i < len(b.pending); i++ {
		if b.pending[i].prio > b.pending[best].prio {
			best = i
		}
	}
	s := b.pending[best]
	b.pending = append(b.pending[:best], b.pending[best+1:]...)
	b.seq++
	l := &lease{
		id:      fmt.Sprintf("l%d", b.seq),
		slot:    s,
		worker:  worker,
		granted: now,
		expires: now.Add(b.ttl),
	}
	b.leases[l.id] = l
	b.inflight++
	b.fobs.LeaseGranted(worker, s.attempts > 0)
	// Workers lease only with free capacity and simulate immediately,
	// so the lease grant is also the start of execution.
	b.jnl.Leased(s.cell, s.job, worker, s.attempts+1)
	b.jnl.Started(s.cell, s.job, worker, s.attempts+1)
	return l
}

// next blocks until worker can lease a job and returns the lease, or
// nil once the board has closed. It serves the in-process pool, whose
// workers wait on the board instead of polling it.
func (b *board) next(worker string) *lease {
	defer b.jnl.flush()
	b.mu.Lock()
	defer b.mu.Unlock()
	for !b.closed && len(b.pending) == 0 {
		b.work.Wait()
	}
	if b.closed {
		return nil
	}
	return b.leaseLocked(worker, time.Now())
}

// finish completes a lease taken with next: the in-process pool's way
// into the completion path fleet workers reach through POST /complete.
// Pool leases never expire, so only closing the board ends one early; a
// result arriving after that is discarded.
func (b *board) finish(l *lease, m core.Metrics, err error) {
	defer b.jnl.flush()
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.closed {
		b.completeLocked(l, m, err)
	}
}

// completeLocked is the completion path of a live lease. A failed
// attempt is journaled and retried until the attempt budget is spent.
// A result is stored in the cache, journaled and fed to the plan, and
// the cell's next job, if any, is scheduled. It reports the status a
// fleet worker is told: "" when the completion failed the campaign.
// Each job has at most one live lease, so every job is counted once:
// a revoked or expired lease can never complete.
func (b *board) completeLocked(l *lease, m core.Metrics, err error) string {
	l.ended = true
	b.inflight--
	wall := time.Since(l.granted)
	b.fobs.JobCompleted(l.worker, wall, err != nil)
	s := l.slot
	if err != nil {
		b.jnl.CellFailed(s.cell, s.job, l.worker, s.attempts+1, err.Error())
		b.jobFailedLocked(s, l.worker, fmt.Errorf("campaign: worker %s: job %s: %w", l.worker, s.job.Key(), err))
		return "recorded"
	}
	b.workerLocked(l.worker).failures = 0
	if b.cache != nil {
		if err := b.cache.Put(s.fp, m); err != nil {
			b.closeLocked(fmt.Errorf("campaign: cache write for job %s: %w", s.job.Key(), err))
			return ""
		}
	}
	b.misses++
	b.jnl.CellDone(s.cell, s.job, false, l.worker, wall, s.attempts+1)
	o := outcome{Result: Result{Job: s.job, Metrics: m}, worker: l.worker, wall: wall, fp: s.fp}
	if next, more := b.observeLocked(s.cell, o); more {
		b.scheduleLocked(s.cell, next)
	}
	if b.err != nil {
		return ""
	}
	return "accepted"
}

// jobFailedLocked records a failed attempt: the worker backs off and
// the job is requeued, until the attempt budget is spent — then the
// whole campaign fails with the underlying error.
func (b *board) jobFailedLocked(s *slot, worker string, err error) {
	b.workerFailureLocked(worker)
	s.attempts++
	if s.attempts >= b.maxAttempts {
		b.closeLocked(err)
		return
	}
	b.pending = append(b.pending, s)
	b.work.Signal()
}

// workerFailureLocked bumps a worker's failure count and backoff
// window (exponential, capped).
func (b *board) workerFailureLocked(worker string) {
	wh := b.workerLocked(worker)
	wh.failures++
	d := backoffBase << uint(wh.failures-1)
	if d > backoffMax || d <= 0 {
		d = backoffMax
	}
	wh.backoffUntil = time.Now().Add(d)
}

func (b *board) workerLocked(name string) *workerHealth {
	wh := b.workers[name]
	if wh == nil {
		wh = &workerHealth{}
		b.workers[name] = wh
	}
	return wh
}

// handler routes the board's worker-facing endpoints. Every request —
// even an idle 204 lease poll — counts as fleet contact for the stall
// detector: a polling worker is alive and will drain the queue
// eventually, whereas total silence means the fleet is gone.
func (b *board) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /lease", b.handleLease)
	mux.HandleFunc("POST /heartbeat", b.handleHeartbeat)
	mux.HandleFunc("POST /complete", b.handleComplete)
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		b.mu.Lock()
		b.lastContact = time.Now()
		b.mu.Unlock()
		mux.ServeHTTP(w, req)
	})
}

// idleFor reports how long the board has gone without any worker
// contact.
func (b *board) idleFor(now time.Time) time.Duration {
	b.mu.Lock()
	defer b.mu.Unlock()
	return now.Sub(b.lastContact)
}

func (b *board) handleLease(w http.ResponseWriter, req *http.Request) {
	var lr api.LeaseRequest
	if !decodeBody(w, req, maxControlBody, "lease request", &lr) {
		return
	}
	if lr.Check != b.check {
		httpErrorJSON(w, http.StatusConflict,
			"incompatible worker %q: %s", lr.Worker, explainCheckMismatch(b.check, lr.Check))
		return
	}

	defer b.jnl.flush()
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		b.writeGoneLocked(w)
		return
	}
	now := time.Now()
	if now.Before(b.workerLocked(lr.Worker).backoffUntil) || b.inflight >= b.maxInflight || len(b.pending) == 0 {
		// Nothing to hand out right now (queue drained, in-flight cap
		// reached, or this worker is backing off after failures); the
		// worker polls again. Jobs may reappear via lease expiry, so an
		// empty queue is not "done".
		w.WriteHeader(http.StatusNoContent)
		return
	}
	l := b.leaseLocked(lr.Worker, now)
	writeJSONTo(w, http.StatusOK, api.LeaseResponse{
		LeaseID:     l.id,
		Job:         l.slot.job,
		Scale:       b.plan.sc,
		SimSeed:     l.slot.job.SimSeed(),
		Fingerprint: l.slot.fp,
		TTLMS:       b.ttl.Milliseconds(),
	})
}

func (b *board) handleHeartbeat(w http.ResponseWriter, req *http.Request) {
	var hr api.HeartbeatRequest
	if !decodeBody(w, req, maxControlBody, "heartbeat", &hr) {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	l := b.leases[hr.LeaseID]
	if b.closed || l == nil || l.ended {
		b.writeGoneLocked(w)
		return
	}
	l.expires = time.Now().Add(b.ttl)
	b.fobs.Heartbeat(l.worker)
	writeJSONTo(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (b *board) handleComplete(w http.ResponseWriter, req *http.Request) {
	var cr api.CompleteRequest
	if !decodeBody(w, req, maxCompletionBody, "completion", &cr) {
		return
	}
	defer b.jnl.flush()
	b.mu.Lock()
	defer b.mu.Unlock()
	l := b.leases[cr.LeaseID]
	if b.closed || l == nil || l.ended {
		// Revoked or expired-and-reassigned: the result is discarded.
		// Per-job derived seeds make simulations deterministic, so the
		// reassigned run produces the identical payload — dropping this
		// one loses nothing and guarantees each job is counted once.
		b.writeGoneLocked(w)
		return
	}
	var (
		m   core.Metrics
		err error
	)
	switch {
	case cr.Error != "":
		err = errors.New(cr.Error)
	case cr.Fingerprint != l.slot.fp || cr.Metrics == nil:
		// The worker ran something other than the job it leased; its
		// result must not enter any cache.
		err = fmt.Errorf("fingerprint mismatch: got %q want %q", cr.Fingerprint, l.slot.fp)
	default:
		m = *cr.Metrics
	}
	status := b.completeLocked(l, m, err)
	if status == "" {
		b.writeGoneLocked(w)
		return
	}
	writeJSONTo(w, http.StatusOK, map[string]string{"status": status})
}

// reap expires overdue leases: each one counts as a failure of its
// holder (heartbeats stopped — the worker died or lost its network)
// and its job goes back in the queue for reassignment.
func (b *board) reap(now time.Time) {
	defer b.jnl.flush()
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return
	}
	for _, l := range b.leases {
		if l.ended || now.Before(l.expires) {
			continue
		}
		l.ended = true
		b.inflight--
		b.fobs.LeaseExpired(l.worker)
		s := l.slot
		b.jnl.HeartbeatMissed(s.cell, s.job, l.worker, s.attempts+1)
		b.jobFailedLocked(s, l.worker, fmt.Errorf(
			"campaign: worker %s lease on job %s expired %d times",
			l.worker, s.job.Key(), s.attempts+1))
		if b.closed {
			return
		}
	}
}

// close terminates the board: every live lease is revoked (later
// heartbeats and completes get 410 and their results are discarded)
// and doneCh closes. err == nil means the campaign completed.
func (b *board) close(err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.closeLocked(err)
}

func (b *board) closeLocked(err error) {
	if b.closed {
		return
	}
	b.closed = true
	b.err = err
	for _, l := range b.leases {
		if !l.ended {
			l.ended = true
			b.inflight--
		}
	}
	close(b.doneCh)
	b.work.Broadcast()
}

// isClosed reports whether the board has reached its end.
func (b *board) isClosed() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.closed
}

// wait blocks until the board closes and returns its terminal error.
func (b *board) wait() error {
	<-b.doneCh
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.err
}

// result waits for the board to close and renders the campaign's
// result set in expansion order, independent of scheduling. The
// board's terminal error — a failed job, a cache write, cancellation —
// is the run's; so is the context's, even when the board completed.
func (b *board) result(ctx context.Context, start time.Time) (*ResultSet, error) {
	if err := b.wait(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return &ResultSet{
		Scale:   b.plan.sc,
		Results: b.plan.results(),
		Hits:    b.hits,
		Misses:  b.misses,
		Wall:    time.Since(start),
	}, nil
}

// liveLeases reports the number of un-ended leases — zero after close,
// which the shutdown regression tests pin.
func (b *board) liveLeases() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	n := 0
	for _, l := range b.leases {
		if !l.ended {
			n++
		}
	}
	return n
}

func (b *board) writeGoneLocked(w http.ResponseWriter) {
	writeJSONTo(w, http.StatusGone, api.BoardStatus{
		Done:  b.closed && b.err == nil,
		Error: errString(b.err),
	})
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// writeJSONTo and httpErrorJSON are the board/worker-side JSON
// helpers (cmd/mmmd has its own; these keep internal/campaign
// self-contained).
func writeJSONTo(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func httpErrorJSON(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSONTo(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// Fleet request bodies are bounded, so a peer cannot make the
// coordinator or a worker decode an arbitrarily large one. Lease,
// heartbeat and attach requests are a few hundred bytes.
const maxControlBody = 16 << 10

// maxCompletionBody caps a completion, the one fleet body that carries
// a job's Metrics. A completion is the encoded Metrics plus about 200
// bytes. Measured on apache at seed 1, the largest Metrics of every
// registered campaign at quick scale was 1,559 bytes, of the full-scale
// reliability campaign 1,680 bytes, and of a quick reliability campaign
// at 384 trials per cell (the nightly fixed-batch run) 2,551 bytes: a
// reliability batch grows by its detection latencies, about 5 bytes
// per detected fault. 1 MiB is over 300 times the largest.
const maxCompletionBody = 1 << 20

// decodeBody decodes req's JSON body into v, reading at most limit
// bytes. A longer body answers 413 and any other decode error 400, both
// naming what the body was; decodeBody reports whether v holds the
// request.
func decodeBody(w http.ResponseWriter, req *http.Request, limit int64, what string, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, req.Body, limit)).Decode(v)
	if err == nil {
		return true
	}
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		httpErrorJSON(w, http.StatusRequestEntityTooLarge, "%s body over %d bytes", what, limit)
		return false
	}
	httpErrorJSON(w, http.StatusBadRequest, "bad %s: %v", what, err)
	return false
}
