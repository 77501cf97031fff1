package campaign

import (
	"context"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/relia"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Options configures an Engine.
type Options struct {
	// Parallel bounds the worker pool; values below 1 use NumCPU.
	Parallel int
	// Cache, when non-nil, is consulted before and written after every
	// job.
	Cache Cache
	// OnProgress, when non-nil, is called after every retired cell
	// with the running totals (cells done out of total, jobs served
	// from the cache so far). It runs in completion order under the
	// board's lock and must not call back into the engine.
	OnProgress func(done, total, hits int)
	// OnJobTime, when non-nil, is called with each simulated job's wall
	// time (cache hits excluded). It runs on worker goroutines and must
	// be concurrency-safe.
	OnJobTime func(time.Duration)
	// TraceDir, when non-empty, writes a flight-recorder trace for every
	// simulated job (cache hits have no simulation to trace) as
	// <mangled key+seed>.trace.json (Chrome trace-event JSON) and
	// .trace.jsonl next to it. Tracing is deliberately not part of the
	// job identity: fingerprints, cached metrics and result rows are
	// byte-identical with or without it.
	TraceDir string
	// TraceMatch, when non-empty, restricts TraceDir to jobs whose
	// aggregation key contains the substring.
	TraceMatch string
	// Journal, when non-nil, receives the run's lifecycle events
	// (expansion, per-cell start/completion/merge). Purely
	// observational: it never alters scheduling, fingerprints or
	// results, and a nil Journal records nothing.
	Journal *Journal
	// OnTrace, when non-nil, is called after each traced job with the
	// flight recorder's cumulative event and dropped-event counts for
	// that job. Runs on worker goroutines; must be concurrency-safe.
	OnTrace func(total, dropped uint64)
}

// Engine runs campaigns on an in-process pool: Parallel goroutines
// that lease jobs from the campaign's board and complete them directly.
// Their attempt budget is 1 (a failed job fails the campaign) and their
// leases never expire. It is stateless apart from its options and safe
// for concurrent Run calls (the mmmd service runs several campaigns at
// once on one engine).
type Engine struct {
	opts Options
}

// New returns an engine with the given options.
func New(opts Options) *Engine {
	if opts.Parallel < 1 {
		opts.Parallel = runtime.NumCPU()
	}
	return &Engine{opts: opts}
}

// Result is one completed job with its metrics and cache provenance.
type Result struct {
	Job      Job
	Metrics  core.Metrics
	CacheHit bool
}

// ResultSet holds a campaign's completed cells in expansion order —
// independent of scheduling, so aggregation over it is deterministic
// for any parallelism. Hits and Misses count jobs: one per fixed cell,
// one per wave of an adaptive cell.
type ResultSet struct {
	Scale   Scale
	Results []Result
	Hits    int
	Misses  int
	Wall    time.Duration
}

// ByKey groups metrics by aggregation key, preserving expansion order
// within each key.
func (rs *ResultSet) ByKey() map[string][]core.Metrics {
	out := make(map[string][]core.Metrics)
	for _, r := range rs.Results {
		k := r.Job.Key()
		out[k] = append(out[k], r.Metrics)
	}
	return out
}

// Run executes an expanded job list on the bounded pool, serving and
// filling the cache, and returns the ordered results. It stops early
// when ctx is cancelled or a job fails, returning the first error.
func (e *Engine) Run(ctx context.Context, sc Scale, jobs []Job) (*ResultSet, error) {
	rs, _, err := e.runPlan(ctx, fixedPlan(sc, jobs))
	return rs, err
}

// RunSpec implements Runner: a fixed-batch spec runs its expanded jobs
// exactly as Run does; a spec with a Precision block runs adaptively.
func (e *Engine) RunSpec(ctx context.Context, sc Scale, spec Spec) (*ResultSet, error) {
	p, err := newPlan(sc, spec)
	if err != nil {
		return nil, err
	}
	rs, _, err := e.runPlan(ctx, p)
	return rs, err
}

// runPlan runs p to its end on a new board, which it also returns so
// tests can check that no lease outlives the run.
func (e *Engine) runPlan(ctx context.Context, p *plan) (*ResultSet, *board, error) {
	h := jobHooks{e.opts.TraceDir, e.opts.TraceMatch, e.opts.OnJobTime, e.opts.OnTrace}
	return runPool(ctx, p, boardOptions{
		cache:       e.opts.Cache,
		journal:     e.opts.Journal,
		onProgress:  e.opts.OnProgress,
		maxAttempts: 1,
	}, func(_ context.Context, b *board) error {
		var wg sync.WaitGroup
		for w := 0; w < e.opts.Parallel; w++ {
			// The pool slot doubles as the journal's worker label for
			// local runs, mirroring the worker names of distributed ones.
			label := "local-" + strconv.Itoa(w)
			wg.Add(1)
			go func() {
				defer wg.Done()
				// Per-worker scratch: each worker recycles the cache
				// hierarchy's multi-megabyte line arrays across the chips
				// it builds, instead of allocating ~10 MB per job for the
				// garbage collector to chase. The recycler is confined to
				// this goroutine, so no locking is involved.
				scratch := cache.NewRecycler()
				for l := b.next(label); l != nil; l = b.next(label) {
					m, err := h.execute(p.sc, l.slot.job, scratch)
					b.finish(l, m, err)
				}
			}()
		}
		wg.Wait()
		return nil
	})
}

// runPool runs p to its end on a new board with o's settings and
// returns the result set and the board. Unless the cache serves the
// whole plan, pool runs the pool goroutines that lease the board's
// jobs, and returns once they all have: the board has closed, or the
// pool gave up with an error, which then fails the run. Cancelling ctx
// closes the board.
func runPool(ctx context.Context, p *plan, o boardOptions, pool func(context.Context, *board) error) (*ResultSet, *board, error) {
	start := time.Now()
	b := newBoard(p, o)
	if err := ctx.Err(); err != nil {
		b.close(err)
	}
	if !b.isClosed() {
		stop := context.AfterFunc(ctx, func() { b.close(ctx.Err()) })
		err := pool(ctx, b)
		stop()
		if ctx.Err() != nil {
			err = ctx.Err()
		}
		b.close(err)
	}
	rs, err := b.result(ctx, start)
	return rs, b, err
}

// jobHooks are an executor's per-job observers: flight-recorder traces,
// job wall times and trace volumes. None of them changes a result.
type jobHooks struct {
	traceDir, traceMatch string
	onJobTime            func(time.Duration)
	onTrace              func(total, dropped uint64)
}

// execute simulates one job for the local pool or a fleet worker and
// reports it to the hooks: its wall time, and its trace when tracing
// selects it.
func (h jobHooks) execute(sc Scale, j Job, scratch *cache.Recycler) (core.Metrics, error) {
	rec := traceRecorder(h.traceDir, h.traceMatch, j)
	start := time.Now()
	m, err := runJob(sc, j, scratch, rec)
	if err != nil {
		return core.Metrics{}, err
	}
	if h.onJobTime != nil {
		h.onJobTime(time.Since(start))
	}
	if rec != nil {
		if err := writeTrace(h.traceDir, j, rec); err != nil {
			return core.Metrics{}, err
		}
		if h.onTrace != nil {
			h.onTrace(rec.Total(), rec.Dropped())
		}
	}
	return m, nil
}

// runJob builds and measures one simulation (or, for reliability
// jobs, one Monte Carlo trial batch). scratch recycles chip arrays
// across the jobs of one worker; nil is valid. rec, when non-nil,
// attaches a flight recorder to the simulated chip — pure observation,
// never part of the returned metrics.
func runJob(sc Scale, j Job, scratch *cache.Recycler, rec *obs.Recorder) (core.Metrics, error) {
	wl, err := workload.ByName(j.Workload)
	if err != nil {
		return core.Metrics{}, err
	}
	if j.Knobs.ReliaTrials > 0 {
		return runReliaJob(sc, j, wl, scratch, rec)
	}
	cfg := sim.DefaultConfig()
	cfg.TimesliceCycles = sc.Timeslice
	j.Knobs.Apply(cfg)
	opts := core.Options{
		Cfg:         cfg,
		Kind:        j.Kind,
		Workload:    wl,
		Seed:        j.SimSeed(),
		Policy:      j.Knobs.Policy,
		PABDisabled: j.Knobs.PABDisabled,
		ForcePAB:    j.Knobs.ForcePAB,
		Recycler:    scratch,
		Recorder:    rec,
	}
	if j.Knobs.FaultInterval > 0 {
		opts.FaultPlan = &fault.Plan{
			MeanInterval: j.Knobs.FaultInterval,
			Kinds:        parseFaultKinds(j.Knobs.FaultKinds),
			Seed:         j.SimSeed(),
		}
	}
	return core.RunSystem(opts, sc.Warmup, sc.Measure)
}

// parseFaultKinds resolves a comma-joined kind list; unknown names are
// dropped (the fingerprint already separates the cells, and a relia
// job with an empty set falls back to all kinds).
func parseFaultKinds(s string) []fault.Kind {
	if s == "" {
		return nil
	}
	var kinds []fault.Kind
	for _, name := range strings.Split(s, ",") {
		if k, err := fault.KindByName(strings.TrimSpace(name)); err == nil {
			kinds = append(kinds, k)
		}
	}
	return kinds
}

// runReliaJob executes one reliability batch: ReliaTrials derived-seed
// trial slices with faults injected at the job's rate, classified into
// the outcome taxonomy. The batch rides in Metrics.Relia so it flows
// through the same cache and aggregation as performance jobs.
func runReliaJob(sc Scale, j Job, wl *workload.Params, scratch *cache.Recycler, rec *obs.Recorder) (core.Metrics, error) {
	// Wave jobs (adaptive-precision increments of one cell) size their
	// per-trial windows from the cell's reference batch shape — not
	// from the wave's own trial count — so every wave of a cell runs
	// statistically identical trials and the merged aggregate equals a
	// single batch of the same trials. Fixed-batch jobs keep the
	// historical trials-dependent windows (their cached results pin
	// them).
	windowTrials := j.Knobs.ReliaTrials
	if j.Knobs.Wave > 0 {
		windowTrials = DefaultReliaTrials
	}
	warmup, measure, timeslice := relia.TrialWindows(sc.Warmup, sc.Measure, windowTrials)
	// Design knobs (serial PAB, TSO, flush rate) apply to reliability
	// trials exactly as they do to performance jobs — the fingerprint
	// distinguishes those cells, so their results must differ too.
	cfg := sim.DefaultConfig()
	j.Knobs.Apply(cfg)
	batch, err := relia.RunBatch(relia.BatchSpec{
		Trials:     j.Knobs.ReliaTrials,
		FirstTrial: j.Knobs.TrialOffset,
		Trial: relia.TrialSpec{
			Kind:         j.Kind,
			Workload:     wl,
			Config:       cfg,
			Policy:       j.Knobs.Policy,
			Seed:         j.SimSeed(),
			Kinds:        parseFaultKinds(j.Knobs.FaultKinds),
			MeanInterval: j.Knobs.FaultInterval,
			Warmup:       warmup,
			Measure:      measure,
			Timeslice:    timeslice,
			ForcePAB:     j.Knobs.ForcePAB,
			PABDisabled:  j.Knobs.PABDisabled,
			Recycler:     scratch,
			Recorder:     rec,
		},
	})
	if err != nil {
		return core.Metrics{}, err
	}
	m := core.Metrics{
		Kind:           j.Kind,
		Workload:       j.Workload,
		Cycles:         uint64(j.Knobs.ReliaTrials) * measure,
		FaultsInjected: relia.TotalInjected(&batch),
		Relia:          &batch,
	}
	return m, nil
}

// summaryMetrics lists the per-key aggregates Summarize emits for the
// buckets-independent counters, in emission order.
var summaryMetrics = []struct {
	name string
	get  func(*core.Metrics) float64
}{
	{"tp:total", func(m *core.Metrics) float64 { return m.TotalThroughput() }},
	{"enter_avg", func(m *core.Metrics) float64 { return m.EnterAvg }},
	{"leave_avg", func(m *core.Metrics) float64 { return m.LeaveAvg }},
	{"enter_n", func(m *core.Metrics) float64 { return float64(m.EnterN) }},
	{"checks", func(m *core.Metrics) float64 { return float64(m.Checks) }},
	{"mismatches", func(m *core.Metrics) float64 { return float64(m.Mismatches) }},
	{"pab_exceptions", func(m *core.Metrics) float64 { return float64(m.PABExceptions) }},
	{"would_corrupt", func(m *core.Metrics) float64 { return float64(m.WouldCorrupt) }},
	{"verify_failures", func(m *core.Metrics) float64 { return float64(m.VerifyFailures) }},
	{"faults_injected", func(m *core.Metrics) float64 { return float64(m.FaultsInjected) }},
	{"user_cyc_per_switch", func(m *core.Metrics) float64 { return m.UserCycPerSwitch }},
	{"os_cyc_per_switch", func(m *core.Metrics) float64 { return m.OSCycPerSwitch }},
}

// Summarize aggregates a result set into stats rows: per aggregation
// key, the per-bucket user IPC and throughput plus the fixed counter
// set, each summarized over the key's seeds. Keys, buckets and metrics
// are emitted in sorted/fixed order so the rows — and their JSON/CSV
// renderings — are byte-identical across runs, parallelism levels and
// cache temperature.
func Summarize(rs *ResultSet) []stats.Row {
	groups := groupByKey(rs.Results)
	if len(groups) == 0 {
		return nil
	}
	n := 0
	for _, g := range groups {
		n += 2*len(g.buckets) + len(summaryMetrics)
	}
	rows := make([]stats.Row, 0, n)
	// One sample serves every row: RowOf keeps nothing of it.
	var s stats.Sample
	for _, g := range groups {
		for _, b := range g.buckets {
			s.Reset()
			for _, i := range g.cells {
				s.Add(rs.Results[i].Metrics.UserIPC(b))
			}
			rows = append(rows, stats.RowOf(g.key, "ipc:"+b, &s))
			s.Reset()
			for _, i := range g.cells {
				s.Add(rs.Results[i].Metrics.Throughput(b))
			}
			rows = append(rows, stats.RowOf(g.key, "tp:"+b, &s))
		}
		for _, sm := range summaryMetrics {
			s.Reset()
			for _, i := range g.cells {
				s.Add(sm.get(&rs.Results[i].Metrics))
			}
			rows = append(rows, stats.RowOf(g.key, sm.name, &s))
		}
		// Reliability cells additionally emit the outcome-taxonomy
		// rows: coverage/SDC with Wilson intervals, outcome counts,
		// detection-latency percentiles and the MTTF/FIT rollup.
		var batches []*core.ReliaBatch
		for _, i := range g.cells {
			if b := rs.Results[i].Metrics.Relia; b != nil {
				batches = append(batches, b)
			}
		}
		if merged := relia.MergeBatches(batches); merged != nil {
			rows = append(rows, relia.Rows(g.key, merged, relia.DefaultRates())...)
		}
	}
	return rows
}

// keyGroup is one aggregation key's results: their indices into the
// result set, in expansion order, and the sorted union of their
// GuestVCPUs buckets.
type keyGroup struct {
	key     string
	cells   []int
	buckets []string
}

// groupByKey groups results by aggregation key, in key order. Unlike
// ByKey it copies no Metrics and computes each key once.
func groupByKey(results []Result) []keyGroup {
	keys := make([]string, len(results))
	order := make([]int, len(results))
	for i := range results {
		keys[i], order[i] = results[i].Job.Key(), i
	}
	// A stable sort keeps each key's results in expansion order, the
	// order their samples are summed in.
	slices.SortStableFunc(order, func(a, b int) int { return strings.Compare(keys[a], keys[b]) })
	var groups []keyGroup
	for start := 0; start < len(order); {
		end := start + 1
		for end < len(order) && keys[order[end]] == keys[order[start]] {
			end++
		}
		g := keyGroup{key: keys[order[start]], cells: order[start:end:end]}
		for _, i := range g.cells {
			for b := range results[i].Metrics.GuestVCPUs {
				if !slices.Contains(g.buckets, b) {
					g.buckets = append(g.buckets, b)
				}
			}
		}
		slices.Sort(g.buckets)
		groups = append(groups, g)
		start = end
	}
	return groups
}
