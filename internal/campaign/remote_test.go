package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/core"
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
		Poll:     5 * time.Millisecond,
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

// runRows executes jobs on a runner and renders the canonical row
// bytes.
func runRows(t *testing.T, r Runner, jobs []Job) ([]byte, *ResultSet) {
	t.Helper()
	rs, err := r.Run(context.Background(), microScale(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := stats.WriteRowsJSON(&buf, Summarize(rs)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), rs
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

// TestWorkerKilledMidLeaseReassigns: killing a worker that holds
// leases must not lose or corrupt the campaign — its leases expire
// and the surviving worker finishes everything, byte-identical to a
// local run.
func TestWorkerKilledMidLeaseReassigns(t *testing.T) {
	jobs := determinismJobs(t)
	local, _ := runRows(t, New(Options{Parallel: 2}), jobs)

	victim, ts1 := startWorker(t, "victim", 2, nil)
	_, ts2 := startWorker(t, "survivor", 2, nil)

	d := dispatcherFor(nil, 400*time.Millisecond, ts1.URL, ts2.URL)
	type outcome struct {
		rows []byte
		err  error
	}
	res := make(chan outcome, 1)
	go func() {
		rs, err := d.Run(context.Background(), microScale(), jobs)
		if err != nil {
			res <- outcome{nil, err}
			return
		}
		var buf bytes.Buffer
		err = stats.WriteRowsJSON(&buf, Summarize(rs))
		res <- outcome{buf.Bytes(), err}
	}()

	// Let the victim lease work, then kill it: its pull loops stop,
	// in-flight results are abandoned (never completed), and the board
	// reassigns the expired leases to the survivor.
	time.Sleep(100 * time.Millisecond)
	victim.Stop()

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
}

// TestCancelMidDispatchRevokesLeases: cancelling a distributed
// campaign revokes every outstanding lease before Run returns — no
// orphans — and the attached workers detach instead of spinning.
func TestCancelMidDispatchRevokesLeases(t *testing.T) {
	jobs := determinismJobs(t)
	w1, ts1 := startWorker(t, "w1", 2, nil)

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
		_, err := d.Run(ctx, microScale(), jobs)
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

	// The worker must detach (board gone) rather than poll forever.
	deadline := time.Now().Add(30 * time.Second)
	for {
		w1.mu.Lock()
		n := len(w1.attachments)
		w1.mu.Unlock()
		if n == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("worker still attached to a cancelled board (%d attachments)", n)
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
		_, err := d.Run(ctx, microScale(), jobs)
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

// boardFixture serves a bare board over httptest so protocol-level
// behavior can be pinned without a dispatcher in the way.
func boardFixture(t *testing.T, jobs []Job, ttl time.Duration, maxInflight int) (*board, *httptest.Server) {
	t.Helper()
	b := newBoard(fixedPlan(microScale(), jobs), boardOptions{ttl: ttl, maxInflight: maxInflight, maxAttempts: 3})
	ts := httptest.NewServer(b.handler())
	t.Cleanup(ts.Close)
	return b, ts
}

func postJSON(t *testing.T, url string, in any) (int, []byte) {
	t.Helper()
	body, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, buf.Bytes()
}

// TestBoardLeaseProtocol pins the board's wire behavior: leases carry
// the coordinator's seed/fingerprint derivations, incompatible
// workers are refused, the in-flight cap holds, and revoked leases
// answer 410 to heartbeat and complete.
func TestBoardLeaseProtocol(t *testing.T) {
	jobs := determinismJobs(t)
	b, ts := boardFixture(t, jobs, time.Minute, 2)

	// Incompatible build: refused outright.
	code, body := postJSON(t, ts.URL+"/lease", api.LeaseRequest{Worker: "bad", Check: "p0.s0.dead"})
	if code != http.StatusConflict {
		t.Fatalf("incompatible lease: %d %s, want 409", code, body)
	}

	lease1 := api.LeaseResponse{}
	code, body = postJSON(t, ts.URL+"/lease", api.LeaseRequest{Worker: "w1", Check: protocolCheck()})
	if code != http.StatusOK {
		t.Fatalf("lease: %d %s", code, body)
	}
	if err := json.Unmarshal(body, &lease1); err != nil {
		t.Fatal(err)
	}
	if lease1.Job != jobs[0] {
		t.Fatalf("lease handed out %+v, want first pending job %+v", lease1.Job, jobs[0])
	}
	if lease1.SimSeed != jobs[0].SimSeed() || lease1.Fingerprint != jobs[0].Fingerprint(microScale()) {
		t.Fatalf("lease derivations wrong: %+v", lease1)
	}

	// In-flight cap: a third concurrent lease is denied.
	if code, _ = postJSON(t, ts.URL+"/lease", api.LeaseRequest{Worker: "w1", Check: protocolCheck()}); code != http.StatusOK {
		t.Fatalf("second lease: %d", code)
	}
	if code, _ = postJSON(t, ts.URL+"/lease", api.LeaseRequest{Worker: "w1", Check: protocolCheck()}); code != http.StatusNoContent {
		t.Fatalf("lease beyond MaxInflight: %d, want 204", code)
	}

	// Heartbeat keeps a live lease; after close both heartbeat and
	// complete get 410 and the late result is discarded.
	if code, _ = postJSON(t, ts.URL+"/heartbeat", api.HeartbeatRequest{LeaseID: lease1.LeaseID}); code != http.StatusOK {
		t.Fatalf("heartbeat: %d", code)
	}
	b.close(nil)
	if got := b.liveLeases(); got != 0 {
		t.Fatalf("%d orphaned leases after close, want 0", got)
	}
	if code, _ = postJSON(t, ts.URL+"/heartbeat", api.HeartbeatRequest{LeaseID: lease1.LeaseID}); code != http.StatusGone {
		t.Fatalf("heartbeat after close: %d, want 410", code)
	}
	code, _ = postJSON(t, ts.URL+"/complete", api.CompleteRequest{
		LeaseID:     lease1.LeaseID,
		Worker:      "w1",
		Fingerprint: lease1.Fingerprint,
		Metrics:     &core.Metrics{},
	})
	if code != http.StatusGone {
		t.Fatalf("complete after close: %d, want 410", code)
	}
	if got := boardDone(b); got != 0 {
		t.Fatalf("revoked completion was counted: done=%d", got)
	}
}

// boardDone reads b.done under its lock.
func boardDone(b *board) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.done
}

// TestBoardExpiryReassignsAndBacksOff: a lease whose worker goes
// silent expires, the job returns to the queue, and the silent worker
// is denied leases while it backs off.
func TestBoardExpiryReassignsAndBacksOff(t *testing.T) {
	jobs := determinismJobs(t)[:1]
	b, ts := boardFixture(t, jobs, 50*time.Millisecond, 4)

	var lr api.LeaseResponse
	code, body := postJSON(t, ts.URL+"/lease", api.LeaseRequest{Worker: "silent", Check: protocolCheck()})
	if code != http.StatusOK || json.Unmarshal(body, &lr) != nil {
		t.Fatalf("lease: %d %s", code, body)
	}

	// No heartbeat: reap past the TTL.
	b.reap(time.Now().Add(time.Second))
	if got := b.liveLeases(); got != 0 {
		t.Fatalf("expired lease still live: %d", got)
	}

	// The silent worker is backing off; a healthy worker picks the
	// requeued job up again.
	if code, _ = postJSON(t, ts.URL+"/lease", api.LeaseRequest{Worker: "silent", Check: protocolCheck()}); code != http.StatusNoContent {
		t.Fatalf("backed-off worker got a lease: %d, want 204", code)
	}
	var lr2 api.LeaseResponse
	code, body = postJSON(t, ts.URL+"/lease", api.LeaseRequest{Worker: "healthy", Check: protocolCheck()})
	if code != http.StatusOK || json.Unmarshal(body, &lr2) != nil {
		t.Fatalf("reassigned lease: %d %s", code, body)
	}
	if lr2.Job != lr.Job {
		t.Fatalf("reassigned job %+v, want the expired one %+v", lr2.Job, lr.Job)
	}

	// A late complete on the expired lease is rejected and the
	// reassigned holder's result is the one that counts.
	code, _ = postJSON(t, ts.URL+"/complete", api.CompleteRequest{
		LeaseID: lr.LeaseID, Worker: "silent", Fingerprint: lr.Fingerprint,
		Metrics: &core.Metrics{},
	})
	if code != http.StatusGone {
		t.Fatalf("late complete on expired lease: %d, want 410", code)
	}
	code, _ = postJSON(t, ts.URL+"/complete", api.CompleteRequest{
		LeaseID: lr2.LeaseID, Worker: "healthy", Fingerprint: lr2.Fingerprint,
		Metrics: &core.Metrics{},
	})
	if code != http.StatusOK {
		t.Fatalf("reassigned complete: %d", code)
	}
	if got := boardDone(b); got != 1 {
		t.Fatalf("done=%d after reassigned completion, want 1", got)
	}
}

// TestBoardAttemptBudgetFailsCampaign: a job that keeps erroring
// exhausts its attempt budget and fails the whole campaign with the
// underlying error, like a local run would.
func TestBoardAttemptBudgetFailsCampaign(t *testing.T) {
	jobs := determinismJobs(t)[:1]
	b, ts := boardFixture(t, jobs, time.Minute, 4)

	for i := 0; i < 3; i++ {
		var lr api.LeaseResponse
		code, body := postJSON(t, ts.URL+"/lease", api.LeaseRequest{Worker: "flaky", Check: protocolCheck()})
		if code == http.StatusNoContent {
			// The flaky worker is backing off between failures; lease from
			// a fresh name — the job itself must still be retried.
			code, body = postJSON(t, ts.URL+"/lease",
				api.LeaseRequest{Worker: fmt.Sprintf("fresh%d", i), Check: protocolCheck()})
		}
		if code != http.StatusOK || json.Unmarshal(body, &lr) != nil {
			t.Fatalf("attempt %d lease: %d %s", i, code, body)
		}
		postJSON(t, ts.URL+"/complete", api.CompleteRequest{
			LeaseID: lr.LeaseID, Worker: lr.Job.Workload, Error: "sim exploded",
		})
	}
	if err := b.wait(); err == nil || !strings.Contains(err.Error(), "sim exploded") {
		t.Fatalf("board error %v, want the job's error after 3 attempts", err)
	}
}

// TestWorkerRefusesIncompatibleCoordinator: the attach handshake
// rejects a coordinator whose simulator build disagrees, protecting
// fleet-wide determinism.
func TestWorkerRefusesIncompatibleCoordinator(t *testing.T) {
	w, ts := startWorker(t, "w1", 1, nil)
	body, _ := json.Marshal(api.AttachRequest{Coordinator: "http://127.0.0.1:1", Check: "p1.s1.beef"})
	resp, err := http.Post(ts.URL+"/v1/attach", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("incompatible attach: %d, want 409", resp.StatusCode)
	}
	if err := w.Attach("", protocolCheck()); err == nil {
		t.Fatal("attach without coordinator URL accepted")
	}
}

// TestStallDetectionFailsDeadFleet: a fleet that accepts the attach
// invitation and then goes completely silent must fail the campaign
// instead of wedging it in "running" forever.
func TestStallDetectionFailsDeadFleet(t *testing.T) {
	zombie := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		writeJSONTo(w, http.StatusOK, api.AttachResponse{Worker: "zombie", Capacity: 1})
	}))
	t.Cleanup(zombie.Close)

	d := NewDispatcher(DispatchOptions{
		Workers:      []string{zombie.URL},
		LeaseTTL:     100 * time.Millisecond,
		StallTimeout: 300 * time.Millisecond,
	})
	_, err := d.Run(context.Background(), microScale(), determinismJobs(t))
	if err == nil || !strings.Contains(err.Error(), "fleet lost") {
		t.Fatalf("dead fleet returned %v, want fleet-lost error", err)
	}
}

// TestCoordinatorAddr covers the -coordinator flag forms.
func TestCoordinatorAddr(t *testing.T) {
	for in, want := range map[string]string{
		"":                 "127.0.0.1:0",
		"  ":               "127.0.0.1:0",
		"10.1.2.3":         "10.1.2.3:0",
		"10.1.2.3:18077":   "10.1.2.3:18077",
		"coord.internal":   "coord.internal:0",
		":18077":           ":18077",
		"::1":              "[::1]:0",
		"2001:db8::1":      "[2001:db8::1]:0",
		"[2001:db8::1]:80": "[2001:db8::1]:80",
	} {
		if got := CoordinatorAddr(in); got != want {
			t.Errorf("CoordinatorAddr(%q) = %q, want %q", in, got, want)
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
