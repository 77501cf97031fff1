package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/stats"
)

// startWorker runs an in-process fleet worker behind an httptest
// server, exactly as mmmd -worker serves it.
func startWorker(t *testing.T, name string, capacity int, cache Cache) (*Worker, *httptest.Server) {
	t.Helper()
	w := NewWorker(WorkerOptions{
		Name:     name,
		Capacity: capacity,
		Cache:    cache,
	})
	ts := httptest.NewServer(w.Handler())
	t.Cleanup(func() {
		w.Stop()
		ts.Close()
	})
	return w, ts
}

// dispatcherFor builds a fast-turnaround test dispatcher over worker
// URLs.
func dispatcherFor(cache Cache, ttl time.Duration, urls ...string) *Dispatcher {
	return NewDispatcher(DispatchOptions{
		Workers:  urls,
		Cache:    cache,
		LeaseTTL: ttl,
	})
}

// runRows executes a job list on a runner and renders the canonical
// row bytes.
func runRows(t *testing.T, r Runner, jobs []Job) ([]byte, *ResultSet) {
	t.Helper()
	return runSpecRows(t, r, Spec{Jobs: jobs})
}

// TestDistributedMatchesLocal is the tentpole guarantee: a campaign
// sharded across two workers produces byte-identical canonical rows
// to the same campaign run on the local pool, with results in
// expansion order either way.
func TestDistributedMatchesLocal(t *testing.T) {
	jobs := determinismJobs(t)
	local, _ := runRows(t, New(Options{Parallel: 2}), jobs)

	_, ts1 := startWorker(t, "w1", 2, nil)
	_, ts2 := startWorker(t, "w2", 2, nil)
	remote, rs := runRows(t, dispatcherFor(nil, 2*time.Second, ts1.URL, ts2.URL), jobs)

	if !bytes.Equal(local, remote) {
		t.Fatalf("sharded campaign diverges from local run:\nlocal: %s\nremote: %s", local, remote)
	}
	if rs.Hits != 0 || rs.Misses != len(jobs) {
		t.Fatalf("cold distributed run: hits=%d misses=%d, want 0/%d", rs.Hits, rs.Misses, len(jobs))
	}
	for i, r := range rs.Results {
		if r.Job != jobs[i] {
			t.Fatalf("result %d out of expansion order: %+v", i, r.Job)
		}
	}
}

// TestDistributedSharesCacheWithLocal: a locally-run campaign's cache
// fully serves a distributed rerun (no worker does any work — the
// dispatcher never even needs the fleet), and vice versa a
// distributed run seeds a local rerun. Mixed local/remote reruns
// resume for free.
func TestDistributedSharesCacheWithLocal(t *testing.T) {
	jobs := determinismJobs(t)
	cache := NewMemCache()

	local, _ := runRows(t, New(Options{Parallel: 2, Cache: cache}), jobs)

	// No workers attached anywhere: every job must come from cache.
	warm, rs := runRows(t, dispatcherFor(cache, time.Second, "http://127.0.0.1:1"), jobs)
	if rs.Hits != len(jobs) || rs.Misses != 0 {
		t.Fatalf("warm distributed run: hits=%d misses=%d, want %d/0", rs.Hits, rs.Misses, len(jobs))
	}
	if !bytes.Equal(local, warm) {
		t.Fatal("cache-warm distributed rerun not byte-identical to local run")
	}

	// The other direction: a distributed cold run fills a cache that a
	// local rerun consumes.
	cache2 := NewMemCache()
	_, ts1 := startWorker(t, "w1", 2, nil)
	cold, rs2 := runRows(t, dispatcherFor(cache2, 2*time.Second, ts1.URL), jobs)
	if rs2.Misses != len(jobs) {
		t.Fatalf("cold distributed run misses=%d, want %d", rs2.Misses, len(jobs))
	}
	localWarm, rs3 := runRows(t, New(Options{Parallel: 2, Cache: cache2}), jobs)
	if rs3.Hits != len(jobs) {
		t.Fatalf("local rerun hits=%d, want %d", rs3.Hits, len(jobs))
	}
	if !bytes.Equal(cold, localWarm) {
		t.Fatal("local rerun over distributed cache not byte-identical")
	}
}

// startVictim runs a fleet worker that dies holding its first lease:
// its server stops the worker as soon as the header of its first run
// response has gone out, so the coordinator has granted the lease and
// the response then ends without a result — however fast the job is.
func startVictim(t *testing.T, name string, capacity int) (*Worker, *httptest.Server) {
	t.Helper()
	w := NewWorker(WorkerOptions{Name: name, Capacity: capacity})
	var once sync.Once
	h := w.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
		h.ServeHTTP(stopOnFlush{rw, func() { once.Do(w.Stop) }}, req)
	}))
	t.Cleanup(func() {
		w.Stop()
		ts.Close()
	})
	return w, ts
}

// stopOnFlush calls stop once it has flushed what was written.
type stopOnFlush struct {
	http.ResponseWriter
	stop func()
}

func (s stopOnFlush) Flush() {
	if err := http.NewResponseController(s.ResponseWriter).Flush(); err == nil {
		s.stop()
	}
}

// stopOnLease waits until the run's journal records a lease granted to
// w, then stops w: a victim from startVictim has died holding it.
func stopOnLease(t *testing.T, j *Journal, w *Worker) {
	t.Helper()
	timeout := time.After(2 * time.Minute)
	var after int64
	for {
		evs, wake, _ := j.EventsSince(after)
		for _, ev := range evs {
			if ev.Type == EventLeased && ev.Worker == w.opts.Name {
				w.Stop()
				return
			}
			after = ev.Seq
		}
		select {
		case <-wake:
		case <-timeout:
			t.Fatalf("no lease granted to %s", w.opts.Name)
		}
	}
}

// TestWorkerKilledMidLeaseReassigns: killing a worker that holds
// leases must not lose or corrupt the campaign — its leases are lost
// and the surviving worker finishes everything, byte-identical to a
// local run.
func TestWorkerKilledMidLeaseReassigns(t *testing.T) {
	jobs := determinismJobs(t)
	local, _ := runRows(t, New(Options{Parallel: 2}), jobs)

	victim, ts1 := startVictim(t, "victim", 2)
	_, ts2 := startWorker(t, "survivor", 2, nil)

	j, err := NewJournal("kill", "")
	if err != nil {
		t.Fatal(err)
	}
	d := NewDispatcher(DispatchOptions{
		Workers:  []string{ts1.URL, ts2.URL},
		LeaseTTL: 400 * time.Millisecond,
		Journal:  j,
	})
	type outcome struct {
		rows []byte
		err  error
	}
	res := make(chan outcome, 1)
	go func() {
		rs, err := d.RunSpec(context.Background(), microScale(), Spec{Jobs: jobs})
		if err != nil {
			res <- outcome{nil, err}
			return
		}
		var buf bytes.Buffer
		err = stats.WriteRowsJSON(&buf, Summarize(rs))
		res <- outcome{buf.Bytes(), err}
	}()

	// Kill the victim once it holds a lease: its in-flight responses
	// end without a result, and the board reassigns the lost leases to
	// the survivor.
	stopOnLease(t, j, victim)

	select {
	case out := <-res:
		if out.err != nil {
			t.Fatal(out.err)
		}
		if !bytes.Equal(local, out.rows) {
			t.Fatalf("campaign after worker death diverges:\nlocal: %s\nremote: %s", local, out.rows)
		}
	case <-time.After(2 * time.Minute):
		t.Fatal("campaign did not recover from worker death")
	}
	if types := journalTypes(j.Events()); types[EventHeartbeatMissed] == 0 {
		t.Fatalf("no lease expired after killing a leased worker: %v", types)
	}
}

// TestCancelMidDispatchRevokesLeases: cancelling a distributed
// campaign revokes every outstanding lease before Run returns — no
// orphans — and aborts the requests it had in flight, so the worker
// stops serving the cancelled run instead of finishing its jobs.
func TestCancelMidDispatchRevokesLeases(t *testing.T) {
	jobs := determinismJobs(t)
	w1, _ := startWorker(t, "w1", 2, nil)
	var serving atomic.Int64
	ts1 := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
		serving.Add(1)
		defer serving.Add(-1)
		w1.Handler().ServeHTTP(rw, req)
	}))
	t.Cleanup(ts1.Close)

	started := make(chan struct{})
	var once bool
	d := NewDispatcher(DispatchOptions{
		Workers:  []string{ts1.URL},
		LeaseTTL: time.Second,
		OnProgress: func(done, total, hits int) {
			if !once {
				once = true
				close(started)
			}
		},
	})
	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		_, err := d.RunSpec(ctx, microScale(), Spec{Jobs: jobs})
		errCh <- err
	}()

	// Cancel as soon as at least one job completed, so leases are
	// guaranteed to be mid-flight.
	select {
	case <-started:
	case <-time.After(2 * time.Minute):
		t.Fatal("campaign never made progress")
	}
	cancel()
	err := <-errCh
	if err == nil || !strings.Contains(err.Error(), "context canceled") {
		t.Fatalf("cancelled dispatch returned %v, want context.Canceled", err)
	}

	// The worker must see its requests end (run abandoned) rather than
	// keep serving a cancelled board.
	deadline := time.Now().Add(30 * time.Second)
	for {
		n := serving.Load()
		if n == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("worker still serving %d requests of a cancelled run", n)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestShutdownNeverDoubleCounts is the coordinator-restart regression
// test: a campaign killed mid-dispatch (SIGTERM semantics — context
// cancelled, leases revoked) and then re-run against the same cache
// stores every job exactly once. A revoked lease's late completion
// must not land a second copy.
func TestShutdownNeverDoubleCounts(t *testing.T) {
	jobs := determinismJobs(t)
	counting := NewCountingCache(NewMemCache())

	_, ts1 := startWorker(t, "w1", 2, nil)

	started := make(chan struct{})
	var once bool
	d := NewDispatcher(DispatchOptions{
		Workers:  []string{ts1.URL},
		Cache:    counting,
		LeaseTTL: time.Second,
		OnProgress: func(done, total, hits int) {
			if !once {
				once = true
				close(started)
			}
		},
	})
	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		_, err := d.RunSpec(ctx, microScale(), Spec{Jobs: jobs})
		errCh <- err
	}()
	<-started
	cancel()
	if err := <-errCh; err == nil {
		t.Fatal("cancelled dispatch returned nil error")
	}
	_, _, putsAfterKill := counting.Stats()
	if putsAfterKill == 0 || putsAfterKill >= uint64(len(jobs)) {
		t.Fatalf("shutdown mid-campaign stored %d results, want partial (0 < n < %d)",
			putsAfterKill, len(jobs))
	}

	// "Restart": a fresh dispatcher over the same cache finishes the
	// campaign. Every job must be stored exactly once across both
	// lives, and the output must match a pure local run.
	local, _ := runRows(t, New(Options{Parallel: 2}), jobs)
	restart := dispatcherFor(counting, 2*time.Second, ts1.URL)
	rows, rs := runRows(t, restart, jobs)
	if int(putsAfterKill)+rs.Misses != len(jobs) || rs.Hits != int(putsAfterKill) {
		t.Fatalf("restart resumed wrong: first life stored %d, second hits=%d misses=%d of %d",
			putsAfterKill, rs.Hits, rs.Misses, len(jobs))
	}
	_, _, putsTotal := counting.Stats()
	if putsTotal != uint64(len(jobs)) {
		t.Fatalf("jobs stored %d times across restart, want exactly %d", putsTotal, len(jobs))
	}
	if !bytes.Equal(local, rows) {
		t.Fatal("restarted campaign output diverges from local run")
	}
}

// errPut is the error every failingCache write returns.
var errPut = errors.New("cache write refused")

// failingCache is a cache that never hits and refuses every write.
type failingCache struct{}

func (failingCache) Get(string) (core.Metrics, bool) { return core.Metrics{}, false }
func (failingCache) Put(string, core.Metrics) error  { return errPut }

// TestFailureAndCancellationEndRuns covers both executors and both
// kinds of plan: a cache-write failure fails the run with that error,
// and a cancellation mid-run returns context.Canceled — each within a
// time bound and with no lease left live on the board.
func TestFailureAndCancellationEndRuns(t *testing.T) {
	type planRunner interface {
		runPlan(ctx context.Context, p *plan) (*ResultSet, *board, error)
	}
	executors := []struct {
		name string
		make func(t *testing.T, c Cache, progress func(done, total, hits int)) planRunner
	}{
		{"engine", func(t *testing.T, c Cache, progress func(int, int, int)) planRunner {
			return New(Options{Parallel: 2, Cache: c, OnProgress: progress})
		}},
		{"fleet", func(t *testing.T, c Cache, progress func(int, int, int)) planRunner {
			_, ts := startWorker(t, "w1", 2, nil)
			return NewDispatcher(DispatchOptions{Workers: []string{ts.URL}, Cache: c,
				LeaseTTL: time.Second, OnProgress: progress})
		}},
	}
	plans := []struct {
		name string
		make func(t *testing.T) *plan
	}{
		{"fixed", func(t *testing.T) *plan { return fixedPlan(microScale(), determinismJobs(t)) }},
		{"adaptive", func(t *testing.T) *plan {
			p, err := newPlan(microScale(), adaptiveSpec())
			if err != nil {
				t.Fatal(err)
			}
			return p
		}},
	}
	// run executes p on r and fails the test unless the run ends with
	// want, within the bound, leaving no live lease.
	run := func(t *testing.T, ctx context.Context, r planRunner, p *plan, want error) {
		t.Helper()
		type ended struct {
			b   *board
			err error
		}
		res := make(chan ended, 1)
		go func() {
			_, b, err := r.runPlan(ctx, p)
			res <- ended{b, err}
		}()
		select {
		case out := <-res:
			if !errors.Is(out.err, want) {
				t.Fatalf("run ended with %v, want %v", out.err, want)
			}
			if n := out.b.liveLeases(); n != 0 {
				t.Fatalf("%d leases still live after the run ended", n)
			}
		case <-time.After(2 * time.Minute):
			t.Fatalf("run did not end with %v", want)
		}
	}
	for _, ex := range executors {
		for _, pl := range plans {
			t.Run(ex.name+"/"+pl.name+"/cache-write", func(t *testing.T) {
				run(t, context.Background(), ex.make(t, failingCache{}, nil), pl.make(t), errPut)
			})
			t.Run(ex.name+"/"+pl.name+"/cancel", func(t *testing.T) {
				// Cancel once the first cell retires, with jobs in flight.
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				var once sync.Once
				r := ex.make(t, nil, func(int, int, int) { once.Do(cancel) })
				run(t, ctx, r, pl.make(t), context.Canceled)
			})
		}
	}
}

// TestParseWorkerList covers the -workers flag forms.
func TestParseWorkerList(t *testing.T) {
	got := ParseWorkerList(" node1:8078, http://node2:9000/ ,,https://node3 ")
	want := []string{"http://node1:8078", "http://node2:9000", "https://node3"}
	if len(got) != len(want) {
		t.Fatalf("ParseWorkerList: %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ParseWorkerList[%d] = %q, want %q", i, got[i], want[i])
		}
	}
	if ParseWorkerList("") != nil {
		t.Fatal("empty list should be nil")
	}
}

// runRequest is the request a coordinator pushes for job at sc, with
// a 30 ms TTL: a keepalive every 10 ms.
func runRequest(job Job, sc Scale) api.RunRequest {
	return api.RunRequest{
		Check:       protocolCheck(),
		Job:         job,
		Scale:       sc,
		SimSeed:     job.SimSeed(),
		Fingerprint: job.Fingerprint(sc),
		TTLMS:       30,
	}
}

// postRun pushes body to a worker's POST /v1/run and reads the whole
// response.
func postRun(t *testing.T, url string, body []byte) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url+api.PathPrefix+"/run", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

// runResultOf splits a 200 run response into its keepalive count and
// its one result line, failing the test unless the response is exactly
// keepalives and then one decodable result line.
func runResultOf(tb testing.TB, body []byte) (keepalives int, res api.RunResult) {
	tb.Helper()
	keepalives = len(body) - len(bytes.TrimLeft(body, "\n"))
	line := body[keepalives:]
	if len(line) == 0 || bytes.IndexByte(line, '\n') != len(line)-1 {
		tb.Fatalf("run response is not keepalives then one result line: %q", body)
	}
	if err := json.Unmarshal(line, &res); err != nil {
		tb.Fatalf("result line %q: %v", line, err)
	}
	return keepalives, res
}

func mustJSON(tb testing.TB, v any) []byte {
	tb.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// TestFleetRunProtocol pins the worker's wire behavior: GET /v1/worker
// names the worker, its capacity and its check token; a pushed job is
// answered 200 with the canonical metrics and the job's cache key; a
// request whose derived seed or fingerprint disagrees with the job is
// answered with the worker's error, not a simulation; a stopped worker
// refuses jobs.
func TestFleetRunProtocol(t *testing.T) {
	job := determinismJobs(t)[0]
	sc := microScale()
	w, ts := startWorker(t, "w1", 3, nil)

	resp, err := http.Get(ts.URL + api.PathPrefix + "/worker")
	if err != nil {
		t.Fatal(err)
	}
	var info api.WorkerInfo
	err = json.NewDecoder(resp.Body).Decode(&info)
	resp.Body.Close()
	if err != nil || info != (api.WorkerInfo{Worker: "w1", Capacity: 3, Check: protocolCheck()}) {
		t.Fatalf("GET /v1/worker: %+v, %v", info, err)
	}

	code, body := postRun(t, ts.URL, mustJSON(t, runRequest(job, sc)))
	if code != http.StatusOK {
		t.Fatalf("run: %d %s", code, body)
	}
	want, err := runJob(sc, job, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, res := runResultOf(t, body); res.Error != "" || res.Fingerprint != job.Fingerprint(sc) ||
		res.Metrics == nil || !bytes.Equal(mustJSON(t, res.Metrics), mustJSON(t, want)) {
		t.Fatalf("run result %+v, want the job's metrics under its fingerprint", res)
	}

	seed := runRequest(job, sc)
	seed.SimSeed++
	fp := runRequest(job, sc)
	fp.Fingerprint = strings.Repeat("0", 64)
	for _, tc := range []struct {
		req  api.RunRequest
		want string
	}{{seed, "derived-seed mismatch"}, {fp, "fingerprint mismatch"}} {
		code, body := postRun(t, ts.URL, mustJSON(t, tc.req))
		if code != http.StatusOK {
			t.Fatalf("run: %d %s", code, body)
		}
		if _, res := runResultOf(t, body); res.Metrics != nil || !strings.Contains(res.Error, tc.want) {
			t.Fatalf("run result %+v, want error %q", res, tc.want)
		}
	}
	if st := w.Stats(); st.JobsDone != 1 || st.JobsFailed != 2 || st.LeasesLost != 0 {
		t.Fatalf("worker counters %+v, want 1 done, 2 failed", st)
	}

	w.Stop()
	if code, body := postRun(t, ts.URL, mustJSON(t, runRequest(job, sc))); code != http.StatusServiceUnavailable {
		t.Fatalf("run on a stopped worker: %d %s, want 503", code, body)
	}
}

// TestWorkerRefusesIncompatibleCoordinator: a job pushed by a
// coordinator whose simulator build disagrees is refused with 409
// naming the component, before anything runs — fleet-wide determinism
// depends on it.
func TestWorkerRefusesIncompatibleCoordinator(t *testing.T) {
	w, ts := startWorker(t, "w1", 1, nil)
	req := runRequest(determinismJobs(t)[0], microScale())
	req.Check = "p1.s1.beef"
	code, body := postRun(t, ts.URL, mustJSON(t, req))
	if code != http.StatusConflict || !bytes.Contains(body, []byte("wire protocol version mismatch")) {
		t.Fatalf("incompatible run: %d %s, want 409 naming the protocol version", code, body)
	}
	if st := w.Stats(); st.JobsDone+st.JobsFailed+st.LeasesLost != 0 {
		t.Fatalf("refused job ran: %+v", st)
	}
}

// fakeWorker serves GET /v1/worker for a worker named name with one
// capacity slot, and hands each POST /v1/run to run with its 1-based
// request number.
func fakeWorker(t *testing.T, name string, run func(n int, rw http.ResponseWriter, req *http.Request)) *httptest.Server {
	t.Helper()
	var n atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("GET "+api.PathPrefix+"/worker", func(rw http.ResponseWriter, _ *http.Request) {
		writeJSONTo(rw, http.StatusOK, api.WorkerInfo{Worker: name, Capacity: 1, Check: protocolCheck()})
	})
	mux.HandleFunc("POST "+api.PathPrefix+"/run", func(rw http.ResponseWriter, req *http.Request) {
		run(int(n.Add(1)), rw, req)
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

// acceptRun answers a run request 200 and flushes the header, as a worker
// does once it has checked the request.
func acceptRun(rw http.ResponseWriter) {
	rw.WriteHeader(http.StatusOK)
	_ = http.NewResponseController(rw).Flush()
}

// TestFleetLostLeaseReassignsAndBacksOff: a job the worker accepted
// and then lost — its response ended without a result, or went silent
// past the lease TTL — spends an attempt, is journaled as
// heartbeat_missed and reassigned, and the worker backs off (0.5 s,
// then 1 s) before its next lease. The third attempt runs on a real
// worker and the rows equal a local run's.
func TestFleetLostLeaseReassignsAndBacksOff(t *testing.T) {
	jobs := determinismJobs(t)[:1]
	local, _ := runRows(t, New(Options{Parallel: 1}), jobs)
	const ttl = 500 * time.Millisecond
	real, _ := startWorker(t, "real", 1, nil)
	var (
		mu         sync.Mutex
		begun, end []time.Time
	)
	ts := fakeWorker(t, "flaky", func(n int, rw http.ResponseWriter, req *http.Request) {
		mu.Lock()
		begun = append(begun, time.Now())
		mu.Unlock()
		defer func() {
			mu.Lock()
			end = append(end, time.Now())
			mu.Unlock()
		}()
		switch n {
		case 1: // ends without a result
			acceptRun(rw)
		case 2: // goes silent
			acceptRun(rw)
			<-req.Context().Done()
		default:
			real.Handler().ServeHTTP(rw, req)
		}
	})
	j, err := NewJournal("lost", "")
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	d := NewDispatcher(DispatchOptions{Workers: []string{ts.URL}, LeaseTTL: ttl, Journal: j, Obs: NewFleetObs(reg)})
	rows, _ := runRows(t, d, jobs)
	j.Finish(nil)
	if !bytes.Equal(local, rows) {
		t.Fatalf("run after lost leases diverges:\nlocal: %s\nfleet: %s", local, rows)
	}

	types := journalTypes(j.Events())
	if types[EventHeartbeatMissed] != 2 || types[EventReassigned] != 2 || types[EventLeased] != 3 || types[EventFailed] != 0 {
		t.Fatalf("journal %v, want 2 lost leases, 2 reassignments, 3 leases, no failure", types)
	}
	snap := reg.Snapshot()
	if snap["mmm_fleet_lease_expiries_total"] != 2 || snap["mmm_fleet_lease_reassignments_total"] != 2 {
		t.Fatalf("fleet counters: %v lost, %v reassigned; want 2 and 2",
			snap["mmm_fleet_lease_expiries_total"], snap["mmm_fleet_lease_reassignments_total"])
	}
	mu.Lock()
	defer mu.Unlock()
	if len(begun) != 3 {
		t.Fatalf("%d run requests, want 3", len(begun))
	}
	if silent := end[1].Sub(begun[1]); silent < ttl {
		t.Errorf("silent response dropped after %v, before the %v TTL", silent, ttl)
	}
	for i, want := range []time.Duration{backoffBase, 2 * backoffBase} {
		if gap := begun[i+1].Sub(end[i]); gap < want {
			t.Errorf("request %d came %v after lost lease %d, want a backoff of at least %v", i+2, gap, i+1, want)
		}
	}
}

// TestFleetAttemptBudgetFailsCampaign: a job whose worker keeps
// reporting an error — its own, or a result under another fingerprint
// — is journaled as failed on each attempt, never cached, and fails the
// whole campaign with the error after three attempts, like a local run
// would.
func TestFleetAttemptBudgetFailsCampaign(t *testing.T) {
	jobs := determinismJobs(t)[:1]
	ts := fakeWorker(t, "flaky", func(n int, rw http.ResponseWriter, _ *http.Request) {
		acceptRun(rw)
		res := api.RunResult{Fingerprint: jobs[0].Fingerprint(microScale()), Error: "sim exploded"}
		if n == 2 {
			res = api.RunResult{Fingerprint: "other", Metrics: &core.Metrics{}}
		}
		_ = json.NewEncoder(rw).Encode(res)
	})
	counting := NewCountingCache(NewMemCache())
	j, err := NewJournal("budget", "")
	if err != nil {
		t.Fatal(err)
	}
	d := NewDispatcher(DispatchOptions{Workers: []string{ts.URL}, Cache: counting, Journal: j})
	_, err = d.RunSpec(context.Background(), microScale(), Spec{Jobs: jobs})
	if err == nil || !strings.Contains(err.Error(), "sim exploded") {
		t.Fatalf("run error %v, want the job's error after 3 attempts", err)
	}
	if _, _, puts := counting.Stats(); puts != 0 {
		t.Fatalf("a failed attempt reached the cache (%d puts)", puts)
	}
	var failed []string
	for _, ev := range j.Events() {
		if ev.Type == EventFailed {
			failed = append(failed, ev.Error)
		}
	}
	if len(failed) != 3 || !strings.Contains(failed[1], "fingerprint mismatch") {
		t.Fatalf("journaled failures %q, want 3 with the second a fingerprint mismatch", failed)
	}
}

// TestFleetRefusalNamesComponent: a worker whose build disagrees is
// refused at GET /v1/worker, before any job is pushed to it, and the
// refusal names the component that differs.
func TestFleetRefusalNamesComponent(t *testing.T) {
	bad := fmt.Sprintf("p%d.s%d.%s", protoVersion, api.SpecVersion+1, sim.StreamCheck())
	var runs atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("GET "+api.PathPrefix+"/worker", func(rw http.ResponseWriter, _ *http.Request) {
		writeJSONTo(rw, http.StatusOK, api.WorkerInfo{Worker: "wx", Capacity: 1, Check: bad})
	})
	mux.HandleFunc("POST "+api.PathPrefix+"/run", func(http.ResponseWriter, *http.Request) { runs.Add(1) })
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)

	_, err := dispatcherFor(nil, time.Second, ts.URL).RunSpec(context.Background(), microScale(),
		Spec{Jobs: determinismJobs(t)})
	if err == nil || !strings.Contains(err.Error(), "campaign SpecVersion mismatch") {
		t.Fatalf("incompatible worker: %v, want a refusal naming the SpecVersion", err)
	}
	if n := runs.Load(); n != 0 {
		t.Fatalf("%d jobs pushed to an incompatible worker", n)
	}
}

// TestFleetNeverFollowsRedirects: a worker that answers with a
// redirect is refused like any other non-200 answer, so the
// coordinator dials only the workers it was given.
func TestFleetNeverFollowsRedirects(t *testing.T) {
	var dialed atomic.Int64
	sink := httptest.NewServer(http.HandlerFunc(func(http.ResponseWriter, *http.Request) { dialed.Add(1) }))
	t.Cleanup(sink.Close)
	redirect := httptest.NewServer(http.RedirectHandler(sink.URL+api.PathPrefix+"/worker", http.StatusTemporaryRedirect))
	t.Cleanup(redirect.Close)
	_, err := dispatcherFor(nil, time.Second, redirect.URL).RunSpec(context.Background(), microScale(),
		Spec{Jobs: determinismJobs(t)[:1]})
	if err == nil || !strings.Contains(err.Error(), "307") {
		t.Fatalf("redirecting worker: %v, want it refused with its 307", err)
	}
	if n := dialed.Load(); n != 0 {
		t.Fatalf("coordinator followed the redirect %d times", n)
	}
}

// TestFleetDropsUnresponsiveWorkers: a worker that cannot be reached,
// and one that never accepts a job, are dropped — the second after
// errBudget refusals in a row, backing off between them — and once
// every worker is dropped the run fails naming the last error, with no
// lease journaled and no attempt spent.
func TestFleetDropsUnresponsiveWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("backs off 7.5 s before the worker is dropped")
	}
	jobs := determinismJobs(t)
	var runs atomic.Int64
	zombie := fakeWorker(t, "zombie", func(n int, rw http.ResponseWriter, _ *http.Request) {
		runs.Add(1)
		httpErrorJSON(rw, http.StatusServiceUnavailable, "overloaded %d", n)
	})
	j, err := NewJournal("dead", "")
	if err != nil {
		t.Fatal(err)
	}
	d := NewDispatcher(DispatchOptions{Workers: []string{"http://127.0.0.1:1", zombie.URL}, Journal: j})
	_, err = d.RunSpec(context.Background(), microScale(), Spec{Jobs: jobs})
	want := fmt.Sprintf("503 overloaded %d", errBudget)
	if err == nil || !strings.Contains(err.Error(), "every worker dropped") || !strings.Contains(err.Error(), want) {
		t.Fatalf("dead fleet returned %v, want every worker dropped, naming %q", err, want)
	}
	if n := runs.Load(); n != errBudget {
		t.Fatalf("zombie refused %d jobs before it was dropped, want %d", n, errBudget)
	}
	if types := journalTypes(j.Events()); types[EventLeased]+types[EventFailed]+types[EventHeartbeatMissed] != 0 {
		t.Fatalf("refused jobs were journaled: %v", types)
	}
}

// peakCache is a cache that serves every lookup from inner after a
// short hold and records the most lookups it served at once: a worker
// looks a job up in its slot, so the peak is the worker's concurrency.
type peakCache struct {
	inner     Cache
	hold      time.Duration
	now, peak atomic.Int64
}

func (c *peakCache) Get(fp string) (core.Metrics, bool) {
	n := c.now.Add(1)
	defer c.now.Add(-1)
	for p := c.peak.Load(); n > p && !c.peak.CompareAndSwap(p, n); p = c.peak.Load() {
	}
	time.Sleep(c.hold)
	return c.inner.Get(fp)
}

func (c *peakCache) Put(fp string, m core.Metrics) error { return c.inner.Put(fp, m) }

// TestFleetCapacityAcrossCoordinators: a worker never runs more than
// Capacity jobs at once, however many coordinators push to it. The
// extra jobs wait for a slot with their keepalives flowing.
func TestFleetCapacityAcrossCoordinators(t *testing.T) {
	jobs := determinismJobs(t)[:3]
	sc := microScale()
	cache := &peakCache{inner: warmCache(t, sc, jobs), hold: 100 * time.Millisecond}
	w, ts := startWorker(t, "w1", 1, cache)
	var wg sync.WaitGroup
	keepalives := make([]int, len(jobs))
	for i, job := range jobs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			code, body := postRun(t, ts.URL, mustJSON(t, runRequest(job, sc)))
			if code != http.StatusOK {
				t.Errorf("run %d: %d %s", i, code, body)
				return
			}
			var res api.RunResult
			keepalives[i], res = runResultOf(t, body)
			if res.Metrics == nil || res.Metrics.Cycles != warmMetrics(i, job).Cycles {
				t.Errorf("run %d: result %+v, want its cached metrics", i, res)
			}
		}()
	}
	wg.Wait()
	if p := cache.peak.Load(); p != 1 {
		t.Fatalf("worker of capacity 1 ran %d jobs at once", p)
	}
	// The last job in waited for two holds, 200 ms, at a keepalive
	// every 10 ms.
	if most := slices.Max(keepalives); most < 10 {
		t.Fatalf("keepalives %v: the waiting jobs' responses went silent", keepalives)
	}
	if st := w.Stats(); st.JobsDone != uint64(len(jobs)) {
		t.Fatalf("worker counters %+v, want %d done", st, len(jobs))
	}
}

// TestFleetBodiesBounded: a run request past its cap answers 413 and
// runs nothing, and the coordinator reads at most maxCompletionBody
// bytes of a result line: a longer one is the worker's error, never a
// result.
func TestFleetBodiesBounded(t *testing.T) {
	job := determinismJobs(t)[0]
	sc := microScale()
	w, ts := startWorker(t, "w1", 1, warmCache(t, sc, []Job{job}))
	big := runRequest(job, sc)
	big.Job.Variant = strings.Repeat("x", maxControlBody)
	if code, body := postRun(t, ts.URL, mustJSON(t, big)); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized run request: %d %s, want 413", code, body)
	}
	if st := w.Stats(); st.JobsDone+st.JobsFailed+st.LeasesLost != 0 {
		t.Fatalf("oversized run request ran: %+v", st)
	}

	fp := job.Fingerprint(sc)
	m := warmMetrics(0, job)
	good := append([]byte("\n\n"), mustJSON(t, api.RunResult{Fingerprint: fp, Metrics: &m})...)
	got, end, err := readRun(bytes.NewReader(append(good, '\n')), fp, func() {})
	if end != runResult || err != nil || got.Cycles != m.Cycles {
		t.Fatalf("readRun of a result: %v, %v, cycles %d", end, err, got.Cycles)
	}
	huge := &core.Metrics{Workload: strings.Repeat("x", maxCompletionBody)}
	long := append(mustJSON(t, api.RunResult{Fingerprint: fp, Metrics: huge}), '\n')
	src := &countingReader{r: bytes.NewReader(long)}
	if _, end, err := readRun(src, fp, func() {}); end != runResult || err == nil ||
		!strings.Contains(err.Error(), "over") {
		t.Fatalf("readRun of an oversized result line: %v, %v; want the worker's error", end, err)
	}
	if src.n > maxCompletionBody+4096+1 {
		t.Fatalf("readRun read %d bytes of an oversized line", src.n)
	}
}

// countingReader counts the bytes read through it.
type countingReader struct {
	r io.Reader
	n int
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	return n, err
}

// FuzzFleetBodies: any body a coordinator pushes to a live worker's
// POST /v1/run is answered with a status of the protocol and never
// panics; a 200 response is keepalives and one result line. The worker
// serves every body twice at once on its one slot and never runs both
// at a time, holds no slot afterwards, and its metrics page parses.
// The worker's cache holds the seed jobs, so an accepted body costs a
// cache hit, not a simulation.
func FuzzFleetBodies(f *testing.F) {
	jobs := determinismJobs(f)[:2]
	sc := microScale()
	edited := func(job Job, edit func(*api.RunRequest)) api.RunRequest {
		r := runRequest(job, sc)
		edit(&r)
		return r
	}
	for _, body := range []api.RunRequest{
		runRequest(jobs[0], sc),
		runRequest(jobs[1], sc),
		edited(jobs[0], func(r *api.RunRequest) { r.Check = "p0.s0.dead" }),
		edited(jobs[0], func(r *api.RunRequest) { r.SimSeed++ }),
		edited(jobs[0], func(r *api.RunRequest) { r.Fingerprint = "x" }),
		edited(jobs[1], func(r *api.RunRequest) { r.TTLMS = -1 }),
		edited(jobs[0], func(r *api.RunRequest) { r.Job.Variant = strings.Repeat("x", maxControlBody) }),
	} {
		f.Add(mustJSON(f, body))
	}
	cache := &peakCache{inner: warmCache(f, sc, jobs)}
	reg := obs.NewRegistry()
	jobSeconds := reg.Histogram("job_seconds", "Simulated jobs.")
	w := NewWorker(WorkerOptions{Name: "fuzz", Cache: cache,
		OnJobTime: func(d time.Duration) { jobSeconds.Observe(d.Seconds()) }})
	f.Cleanup(w.Stop)
	reg.RegisterCollector(func(emit func(obs.Sample)) {
		st := w.Stats()
		for _, c := range []struct {
			name string
			v    uint64
		}{{"jobs_done_total", st.JobsDone}, {"jobs_failed_total", st.JobsFailed}, {"leases_lost_total", st.LeasesLost}} {
			emit(obs.Sample{Name: c.name, Type: "counter", Labels: []string{"worker", st.Name}, Value: float64(c.v)})
		}
	})
	h := w.Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		var recs [2]*httptest.ResponseRecorder
		var wg sync.WaitGroup
		for i := range recs {
			recs[i] = httptest.NewRecorder()
			wg.Add(1)
			go func() {
				defer wg.Done()
				h.ServeHTTP(recs[i], httptest.NewRequest(http.MethodPost, api.PathPrefix+"/run", bytes.NewReader(body)))
			}()
		}
		wg.Wait()
		for _, rec := range recs {
			switch rec.Code {
			case http.StatusOK:
				runResultOf(t, rec.Body.Bytes())
			case http.StatusBadRequest, http.StatusConflict, http.StatusRequestEntityTooLarge:
			default:
				t.Fatalf("POST /v1/run answered %d: %s", rec.Code, rec.Body)
			}
		}
		if p := cache.peak.Load(); p > 1 {
			t.Fatalf("worker of capacity 1 ran %d jobs at once", p)
		}
		if n := len(w.slots); n != cap(w.slots) {
			t.Fatalf("%d of %d slots free after the runs ended", n, cap(w.slots))
		}
		var page bytes.Buffer
		if err := reg.WritePrometheus(&page); err != nil {
			t.Fatal(err)
		}
		if _, err := obs.ParseExposition(&page); err != nil {
			t.Fatalf("metrics page refused: %v", err)
		}
	})
}

// FuzzRunResponse: whatever bytes a worker answers a run with, the
// coordinator's reader ends with a result, the worker's error or a
// lost lease, calls alive once per keepalive before it, and reads no
// line past maxCompletionBody. Only a result line under the job's
// fingerprint is a result.
func FuzzRunResponse(f *testing.F) {
	job := determinismJobs(f)[0]
	fp := job.Fingerprint(microScale())
	m := warmMetrics(0, job)
	result := mustJSON(f, api.RunResult{Fingerprint: fp, Metrics: &m})
	for _, seed := range [][]byte{
		append(append([]byte("\n\n\n"), result...), '\n'),
		append(result, '\n'),
		result, // cut short
		[]byte("\n\n"),
		[]byte(""),
		append(mustJSON(f, api.RunResult{Fingerprint: fp, Error: "boom"}), '\n'),
		append(mustJSON(f, api.RunResult{Fingerprint: "x", Metrics: &m}), '\n'),
		[]byte("{\"fingerprint\":\"" + fp + "\"}\n"),
		[]byte("not json\n"),
		[]byte(" \n"),
		append(bytes.Repeat([]byte("x"), 5000), '\n'),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		src := &countingReader{r: bytes.NewReader(data)}
		alive := 0
		got, end, err := readRun(src, fp, func() { alive++ })
		lines := bytes.SplitAfter(data, []byte("\n"))
		if alive > len(lines) || !bytes.Equal(bytes.Repeat([]byte("\n"), alive), data[:alive]) {
			t.Fatalf("%d keepalives counted in %q", alive, data)
		}
		rest := data[alive:]
		line, _, complete := bytes.Cut(rest, []byte("\n"))
		switch end {
		case runLost:
			if complete && len(line) <= maxCompletionBody {
				t.Fatalf("lost lease although a whole result line arrived: %q (%v)", data, err)
			}
		case runResult:
			if err == nil {
				var res api.RunResult
				if json.Unmarshal(line, &res) != nil || res.Error != "" || res.Fingerprint != fp ||
					res.Metrics == nil || !bytes.Equal(mustJSON(t, *res.Metrics), mustJSON(t, got)) {
					t.Fatalf("result from a line that is not one: %q", line)
				}
			}
		default:
			t.Fatalf("readRun ended as %v", end)
		}
		if src.n > alive+maxCompletionBody+4096+1 {
			t.Fatalf("readRun read %d bytes for a line capped at %d", src.n, maxCompletionBody)
		}
	})
}
