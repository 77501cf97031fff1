package campaign

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
)

// board is the one scheduling core every campaign runs on, local or
// distributed. It holds a plan's schedulable jobs in a priority queue —
// the widest confidence interval first, FIFO among equals, so a fixed
// campaign's jobs (all at one priority) lease in expansion order — and
// hands them out as leases to pool goroutines: the Engine's, which
// simulate in-process, and the Dispatcher's, each of which pushes its
// lease's job to one capacity slot of a fleet worker. It resolves cache
// hits inline and runs the one completion path: cache Put, journal,
// feed the plan, merge in expansion order, report progress.
//
// All state transitions happen under mu, and every terminal path
// funnels through closeLocked so doneCh closes exactly once and no
// lease outlives the board. The completion path runs under mu too:
// completions arrive at job-runtime granularity, so even a disk-cache
// write held under the lock costs little, and in exchange delivery
// order needs no extra machinery. Journal methods take only the
// journal's own lock, so calling them under mu cannot deadlock; the
// progress callback must not call back into the board.
//
// Each step that journals events — newBoard, accept, finish and lost —
// flushes the journal once it has released mu, so the step's lines
// reach the journal file in one write.
type board struct {
	plan        *plan
	cache       Cache
	jnl         *Journal
	fobs        *FleetObs
	onProgress  func(done, total, hits int)
	maxAttempts int

	mu      sync.Mutex
	work    *sync.Cond // signalled when a job is queued or the board closes
	pending []*slot    // jobs awaiting a lease
	live    int        // leases taken and not yet finished, lost or released
	done    int        // cells retired and merged
	hits    int        // jobs served from the cache
	misses  int        // jobs simulated
	closed  bool
	err     error
	doneCh  chan struct{}
}

// boardOptions are an executor's settings for the boards it runs.
type boardOptions struct {
	cache      Cache
	journal    *Journal
	fleet      *FleetObs
	onProgress func(done, total, hits int)
	// maxAttempts is how often one job may fail (an error or a lost
	// lease) before the campaign fails.
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

// lease is one job taken by a pool goroutine. Its holder ends it
// exactly once — finish, lost or release — unless the board closes
// first, which revokes every lease at once.
type lease struct {
	slot    *slot
	worker  string
	granted time.Time // when the job started, for its reported wall time
}

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
		maxAttempts: o.maxAttempts,
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

// next blocks until worker can lease a job and returns the lease, its
// job started at once, or nil once the board has closed. It serves the
// in-process pool.
func (b *board) next(worker string) *lease {
	l := b.take(worker)
	if l != nil {
		b.accept(l)
	}
	return l
}

// take waits until a job is pending and takes the highest-priority one
// for worker, or returns nil once the board has closed. Pool goroutines
// wait on the board instead of polling it. A fleet slot takes a job
// before it knows whether its worker accepts it, and calls accept once
// it does or release when it does not.
func (b *board) take(worker string) *lease {
	b.mu.Lock()
	defer b.mu.Unlock()
	for !b.closed && len(b.pending) == 0 {
		b.work.Wait()
	}
	if b.closed {
		return nil
	}
	best := 0
	for i := 1; i < len(b.pending); i++ {
		if b.pending[i].prio > b.pending[best].prio {
			best = i
		}
	}
	s := b.pending[best]
	b.pending = append(b.pending[:best], b.pending[best+1:]...)
	b.live++
	return &lease{slot: s, worker: worker}
}

// accept journals a lease's grant and the start of its job: at once
// for the in-process pool, and for a fleet slot once its worker has
// accepted the job.
func (b *board) accept(l *lease) {
	defer b.jnl.flush()
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return
	}
	s := l.slot
	l.granted = time.Now()
	b.fobs.LeaseGranted(l.worker, s.attempts > 0)
	b.jnl.Leased(s.cell, s.job, l.worker, s.attempts+1)
	b.jnl.Started(s.cell, s.job, l.worker, s.attempts+1)
}

// release puts back the job of a lease its worker never accepted. No
// attempt is spent and nothing is journaled: the job was never
// started.
func (b *board) release(l *lease) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return
	}
	b.live--
	b.pending = append(b.pending, l.slot)
	b.work.Signal()
}

// lost ends an accepted lease whose worker went silent or ended its
// response without a result: the attempt is spent and the job is
// queued for reassignment.
func (b *board) lost(l *lease) {
	defer b.jnl.flush()
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return
	}
	b.live--
	s := l.slot
	b.fobs.LeaseLost(l.worker)
	b.jnl.HeartbeatMissed(s.cell, s.job, l.worker, s.attempts+1)
	b.jobFailedLocked(s, fmt.Errorf("campaign: worker %s lost job %s %d times",
		l.worker, s.job.Key(), s.attempts+1))
}

// finish completes a lease with its job's result. Closing the board
// revokes every lease, so a result arriving after that is discarded.
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
// the cell's next job, if any, is scheduled. Each job has at most one
// live lease, so every job is counted once.
func (b *board) completeLocked(l *lease, m core.Metrics, err error) {
	b.live--
	wall := time.Since(l.granted)
	b.fobs.JobCompleted(l.worker, wall, err != nil)
	s := l.slot
	if err != nil {
		b.jnl.CellFailed(s.cell, s.job, l.worker, s.attempts+1, err.Error())
		b.jobFailedLocked(s, fmt.Errorf("campaign: worker %s: job %s: %w", l.worker, s.job.Key(), err))
		return
	}
	if b.cache != nil {
		if err := b.cache.Put(s.fp, m); err != nil {
			b.closeLocked(fmt.Errorf("campaign: cache write for job %s: %w", s.job.Key(), err))
			return
		}
	}
	b.misses++
	b.jnl.CellDone(s.cell, s.job, false, l.worker, wall, s.attempts+1)
	o := outcome{Result: Result{Job: s.job, Metrics: m}, worker: l.worker, wall: wall, fp: s.fp}
	if next, more := b.observeLocked(s.cell, o); more {
		b.scheduleLocked(s.cell, next)
	}
}

// jobFailedLocked records a failed attempt: the job is requeued until
// the attempt budget is spent — then the whole campaign fails with the
// underlying error.
func (b *board) jobFailedLocked(s *slot, err error) {
	s.attempts++
	if s.attempts >= b.maxAttempts {
		b.closeLocked(err)
		return
	}
	b.pending = append(b.pending, s)
	b.work.Signal()
}

// close terminates the board: every live lease is revoked (a later
// result is discarded) and doneCh closes. err == nil means the
// campaign completed.
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
	b.live = 0
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

// liveLeases reports the number of leases not yet ended — zero after
// close, which the shutdown regression tests pin.
func (b *board) liveLeases() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.live
}
