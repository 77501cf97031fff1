package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/stats"
)

// journalTypes tallies one run's events by type.
func journalTypes(events []Event) map[api.EventType]int {
	types := make(map[api.EventType]int)
	for i := range events {
		types[events[i].Type]++
	}
	return types
}

// landed journals a fixed cell's one job landing and the cell's merge,
// as the board does when a fixed job completes or hits the cache.
func landed(j *Journal, cell int, job Job, hit bool, worker string, wall time.Duration, attempt int) {
	j.CellDone(cell, job, hit, worker, wall, attempt)
	j.CellMerged(cell, outcome{Result: Result{Job: job, CacheHit: hit},
		worker: worker, wall: wall, fp: job.Fingerprint(microScale())})
}

// TestJournalMergePrefixOrdering: completions delivered wildly out of
// order must still merge in strict expansion order, exactly once per
// cell, with the merge stream released as the contiguous prefix grows.
func TestJournalMergePrefixOrdering(t *testing.T) {
	jobs := determinismJobs(t)
	if len(jobs) < 4 {
		t.Fatalf("need >= 4 jobs, have %d", len(jobs))
	}
	j, err := NewJournal("test", "")
	if err != nil {
		t.Fatal(err)
	}
	j.Begin(microScale(), len(jobs), nil)

	// Complete the last cell first: nothing merges yet.
	last := len(jobs) - 1
	landed(j, last, jobs[last], false, "w9", time.Second, 1)
	if types := journalTypes(j.Events()); types[EventMerged] != 0 {
		t.Fatalf("out-of-order completion merged early: %v", types)
	}

	// Deliver the rest back to front: the final delivery (cell 0)
	// releases the whole prefix at once.
	for i := last - 1; i >= 0; i-- {
		landed(j, i, jobs[i], false, "w1", time.Second, 1)
	}
	// Duplicate deliveries — a raced late completion — must be dropped.
	j.CellMerged(0, outcome{Result: Result{Job: jobs[0]}, worker: "dup", wall: time.Second})
	j.Finish(nil)

	events := j.Events()
	types := journalTypes(events)
	if types[EventMerged] != len(jobs) || types[EventCompleted] != len(jobs) {
		t.Fatalf("merged %d / completed %d, want %d each: %v",
			types[EventMerged], types[EventCompleted], len(jobs), types)
	}
	next := 0
	for i := range events {
		if events[i].Type != EventMerged {
			continue
		}
		if events[i].Cell != next {
			t.Fatalf("merged cell %d at position %d, want %d", events[i].Cell, i, next)
		}
		if events[i].Job == nil || events[i].Metrics == nil || events[i].Fp == "" {
			t.Fatalf("merged event lacks payload: %+v", events[i])
		}
		if *events[i].Job != jobs[next] {
			t.Fatalf("merged cell %d carries wrong job: %+v", next, events[i].Job)
		}
		next++
	}
	if chk, err := ValidateEvents(events); err != nil || !chk.Complete || chk.Outcome != "done" {
		t.Fatalf("validate: %+v, %v", chk, err)
	}
}

// TestJournalEventsSince: the history-then-live subscription — a reader
// positioned past the history blocks on the wake channel until the next
// append, then observes exactly the new suffix; Finish closes the
// stream for everyone.
func TestJournalEventsSince(t *testing.T) {
	jobs := determinismJobs(t)
	j, err := NewJournal("test", "")
	if err != nil {
		t.Fatal(err)
	}
	j.Begin(microScale(), len(jobs), nil)
	landed(j, 0, jobs[0], true, "", 0, 0)

	history, wake, closed := j.EventsSince(0)
	if closed || len(history) < 3 { // expanded, cache_hit, merged
		t.Fatalf("history: %d events, closed=%v", len(history), closed)
	}
	lastSeq := history[len(history)-1].Seq

	// The suffix starts right after the resume point wherever it falls:
	// before the history, at its start, in the middle, at its end and
	// past it.
	for _, tc := range []struct {
		after int64
		want  int
	}{{-1, len(history)}, {0, len(history)}, {lastSeq / 2, len(history) - int(lastSeq/2)},
		{lastSeq, 0}, {lastSeq + 5, 0}} {
		evs, _, _ := j.EventsSince(tc.after)
		if len(evs) != tc.want {
			t.Fatalf("EventsSince(%d): %d events, want %d", tc.after, len(evs), tc.want)
		}
		if len(evs) > 0 && (evs[0].Seq != max(tc.after, 0)+1 || evs[len(evs)-1].Seq != lastSeq) {
			t.Fatalf("EventsSince(%d): seqs %d..%d, want %d..%d",
				tc.after, evs[0].Seq, evs[len(evs)-1].Seq, max(tc.after, 0)+1, lastSeq)
		}
	}

	// Caught up: nothing new, not closed, wake pending.
	evs, wake, closed := j.EventsSince(lastSeq)
	if len(evs) != 0 || closed {
		t.Fatalf("caught-up read returned %d events, closed=%v", len(evs), closed)
	}
	select {
	case <-wake:
		t.Fatal("wake channel closed with no new events")
	default:
	}

	// A new append wakes the subscriber and the suffix read starts
	// exactly after the last seen sequence number.
	done := make(chan struct{})
	go func() {
		defer close(done)
		<-wake
	}()
	j.Started(1, jobs[1], "w1", 1)
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("append did not wake the subscriber")
	}
	evs, _, _ = j.EventsSince(lastSeq)
	if len(evs) != 1 || evs[0].Type != EventStarted || evs[0].Seq != lastSeq+1 {
		t.Fatalf("suffix after wake: %+v", evs)
	}

	// Finish closes the stream: closed reported true, wake released.
	_, wake, _ = j.EventsSince(lastSeq + 1)
	j.Finish(nil)
	select {
	case <-wake:
	case <-time.After(5 * time.Second):
		t.Fatal("Finish did not release waiting subscribers")
	}
	if _, _, closed = j.EventsSince(0); !closed {
		t.Fatal("journal not closed after Finish")
	}
	// Emissions after Finish are dropped, not appended.
	j.Started(1, jobs[1], "w1", 1)
	if evs, _, _ := j.EventsSince(lastSeq + 1); len(evs) != 0 {
		t.Fatalf("post-Finish emission appended: %+v", evs)
	}
}

// TestJournalFileRoundTrip is the tentpole persistence guarantee: an
// engine run journaled to disk replays from the JSONL file to the exact
// result set the run produced — same rows, byte for byte.
func TestJournalFileRoundTrip(t *testing.T) {
	jobs := determinismJobs(t)
	path := filepath.Join(t.TempDir(), "run.journal.jsonl")
	j, err := NewJournal("c1", path)
	if err != nil {
		t.Fatal(err)
	}
	eng := New(Options{Parallel: runtime.NumCPU(), Journal: j})
	rs, err := eng.Run(context.Background(), microScale(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	j.Finish(nil)
	if err := j.Err(); err != nil {
		t.Fatalf("journal write error: %v", err)
	}

	events, err := ReadJournalFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != len(j.Events()) {
		t.Fatalf("file has %d events, memory has %d", len(events), len(j.Events()))
	}
	chk, err := ValidateEvents(events)
	if err != nil {
		t.Fatal(err)
	}
	if !chk.Complete || chk.Total != len(jobs) || chk.Merged != len(jobs) {
		t.Fatalf("journal incomplete: %+v", chk)
	}

	replayed, err := ReplayResults(events)
	if err != nil {
		t.Fatal(err)
	}
	if replayed.Hits != rs.Hits || replayed.Misses != rs.Misses || replayed.Scale != rs.Scale {
		t.Fatalf("replayed header differs: %+v vs %+v", replayed, rs)
	}
	var want, got bytes.Buffer
	if err := stats.WriteRowsJSON(&want, Summarize(rs)); err != nil {
		t.Fatal(err)
	}
	if err := stats.WriteRowsJSON(&got, Summarize(replayed)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want.Bytes(), got.Bytes()) {
		t.Fatalf("replay diverges from run:\nrun:    %s\nreplay: %s", want.Bytes(), got.Bytes())
	}
}

// TestJournalFinishKeepsCloseError: a file error is sticky whether a
// write or the close at Finish hits it.
func TestJournalFinishKeepsCloseError(t *testing.T) {
	j, err := NewJournal("c1", filepath.Join(t.TempDir(), "run.journal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	j.Begin(microScale(), 1, nil)
	if err := j.f.Close(); err != nil {
		t.Fatal(err)
	}
	j.Finish(nil)
	if j.Err() == nil {
		t.Fatal("Finish dropped the journal file's close error")
	}
}

// TestJournalCacheHitRerun: a warm-cache rerun journals cache_hit (not
// completed) for every cell and still merges the full prefix — and the
// replayed result set preserves the hit accounting.
func TestJournalCacheHitRerun(t *testing.T) {
	jobs := determinismJobs(t)
	cache := NewMemCache()
	eng := New(Options{Parallel: 2, Cache: cache})
	if _, err := eng.Run(context.Background(), microScale(), jobs); err != nil {
		t.Fatal(err)
	}

	j, err := NewJournal("warm", "")
	if err != nil {
		t.Fatal(err)
	}
	warm := New(Options{Parallel: 2, Cache: cache, Journal: j})
	rs, err := warm.Run(context.Background(), microScale(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	j.Finish(nil)
	if rs.Hits != len(jobs) {
		t.Fatalf("warm run hits=%d, want %d", rs.Hits, len(jobs))
	}
	types := journalTypes(j.Events())
	if types[EventCacheHit] != len(jobs) || types[EventCompleted] != 0 || types[EventMerged] != len(jobs) {
		t.Fatalf("warm journal shape: %v", types)
	}
	replayed, err := ReplayResults(j.Events())
	if err != nil {
		t.Fatal(err)
	}
	if replayed.Hits != len(jobs) || replayed.Misses != 0 {
		t.Fatalf("replayed hit accounting: hits=%d misses=%d", replayed.Hits, replayed.Misses)
	}
}

// TestJournalFinishOutcomes: the run-level terminal event
// distinguishes cancellation from failure, and ValidateEvents reports
// the outcome.
func TestJournalFinishOutcomes(t *testing.T) {
	jobs := determinismJobs(t)

	j1, _ := NewJournal("x", "")
	j1.Begin(microScale(), len(jobs), nil)
	j1.Finish(fmt.Errorf("wrapped: %w", context.Canceled))
	chk, err := ValidateEvents(j1.Events())
	if err != nil || chk.Outcome != "canceled" {
		t.Fatalf("canceled outcome: %+v, %v", chk, err)
	}

	j2, _ := NewJournal("x", "")
	j2.Begin(microScale(), len(jobs), nil)
	j2.Finish(errors.New("sim exploded"))
	chk, err = ValidateEvents(j2.Events())
	if err != nil || chk.Outcome != "failed" {
		t.Fatalf("failed outcome: %+v, %v", chk, err)
	}

	// Finish is idempotent: a second call emits nothing.
	n := len(j2.Events())
	j2.Finish(errors.New("again"))
	if len(j2.Events()) != n {
		t.Fatal("second Finish appended events")
	}

	// A run canceled before expansion journals only the run-level
	// terminal event — still a valid journal.
	j3, _ := NewJournal("x", "")
	j3.Finish(context.Canceled)
	chk, err = ValidateEvents(j3.Events())
	if err != nil || chk.Outcome != "canceled" || chk.Events != 1 {
		t.Fatalf("pre-expansion cancel: %+v, %v", chk, err)
	}
}

// goodJournal is a complete, valid journal of the determinism jobs:
// every cell lands and merges in order, then the run finishes.
func goodJournal(tb testing.TB) []Event {
	jobs := determinismJobs(tb)
	j, _ := NewJournal("v", "")
	j.Begin(microScale(), len(jobs), nil)
	for i := range jobs {
		landed(j, i, jobs[i], false, "w", time.Second, 1)
	}
	j.Finish(nil)
	return j.Events()
}

// Malformed one-event journals: a negative cell count, a count far
// beyond any run, and a cell index below the run-level -1.
const (
	journalNegativeTotal = `{"seq":1,"type":"expanded","cell":-1,"total":-1}`
	journalHugeTotal     = `{"seq":1,"type":"expanded","cell":-1,"total":1099511627776}`
	journalNegativeCell  = `{"seq":1,"type":"expanded","cell":-1,"total":2}` + "\n" +
		`{"seq":2,"type":"completed","cell":-7}`
)

// TestValidateEventsRejectsCorruption: each structural invariant
// actually fires.
func TestValidateEventsRejectsCorruption(t *testing.T) {
	jobs := determinismJobs(t)
	if _, err := ValidateEvents(nil); err == nil {
		t.Error("empty journal accepted")
	}

	events := goodJournal(t)
	events[2].Seq = events[1].Seq
	if _, err := ValidateEvents(events); err == nil {
		t.Error("non-increasing seq accepted")
	}

	events = goodJournal(t)
	events[0], events[1] = events[1], events[0]
	events[0].Seq, events[1].Seq = 1, 2
	if _, err := ValidateEvents(events); err == nil {
		t.Error("cell event before expanded accepted")
	}

	// Swap two merged events: expansion order violated.
	events = goodJournal(t)
	var merged []int
	for i := range events {
		if events[i].Type == EventMerged {
			merged = append(merged, i)
		}
	}
	events[merged[0]].Cell, events[merged[1]].Cell = events[merged[1]].Cell, events[merged[0]].Cell
	if _, err := ValidateEvents(events); err == nil {
		t.Error("out-of-order merge accepted")
	}

	// A merged event without its payload.
	events = goodJournal(t)
	events[merged[0]].Job = nil
	if _, err := ValidateEvents(events); err == nil {
		t.Error("payload-less merge accepted")
	}

	// Events after a terminal run-level event.
	j, _ := NewJournal("v", "")
	j.Begin(microScale(), len(jobs), nil)
	j.Finish(errors.New("boom"))
	events = j.Events()
	events = append(events, Event{Seq: events[len(events)-1].Seq + 1,
		Type: EventStarted, Cell: 0})
	if _, err := ValidateEvents(events); err == nil {
		t.Error("event after terminal accepted")
	}

	// Cell index out of range.
	events = goodJournal(t)
	j2, _ := NewJournal("v", "")
	j2.Begin(microScale(), 1, nil)
	j2.Started(5, jobs[0], "w", 1)
	if _, err := ValidateEvents(j2.Events()); err == nil {
		t.Error("out-of-range cell accepted")
	}

	// A negative cell count, and a cell index below -1.
	for _, text := range []string{journalNegativeTotal, journalNegativeCell} {
		events, err := ReadJournal(strings.NewReader(text))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ValidateEvents(events); err == nil {
			t.Errorf("accepted %s", text)
		}
		if _, err := ReplayResults(events); err == nil {
			t.Errorf("replay accepted %s", text)
		}
	}

	// ReplayResults shares the ordering oracle.
	events = goodJournal(t)
	events[merged[0]].Cell, events[merged[1]].Cell = events[merged[1]].Cell, events[merged[0]].Cell
	if _, err := ReplayResults(events); err == nil {
		t.Error("replay accepted out-of-order merge")
	}

	// A declared cell count sizes nothing: a huge one replays to an
	// empty, incomplete result set.
	events, err := ReadJournal(strings.NewReader(journalHugeTotal))
	if err != nil {
		t.Fatal(err)
	}
	if rs, err := ReplayResults(events); err != nil || len(rs.Results) != 0 {
		t.Errorf("huge total: replay %v, %v", rs, err)
	}

	// A crashed run's journal replays its merged prefix.
	events = goodJournal(t)
	events = events[:merged[1]]
	if rs, err := ReplayResults(events); err != nil || len(rs.Results) != 1 || rs.Results[0].Job.Key() != jobs[0].Key() {
		t.Errorf("partial journal: replay %v, %v", rs, err)
	}
}

// FuzzJournal: arbitrary bytes through the post-mortem pipeline —
// ReadJournal, ValidateEvents, ReplayResults, Attribute and the text
// report — never panic; ReplayResults rejects what ValidateEvents
// rejects, and a journal that validates as complete replays to exactly
// its declared cell count.
func FuzzJournal(f *testing.F) {
	var good bytes.Buffer
	for _, ev := range goodJournal(f) {
		line, err := json.Marshal(ev)
		if err != nil {
			f.Fatal(err)
		}
		good.Write(append(line, '\n'))
	}
	f.Add(good.Bytes())
	f.Add(good.Bytes()[:good.Len()-20]) // a torn last line
	f.Add([]byte(journalNegativeTotal))
	f.Add([]byte(journalHugeTotal))
	f.Add([]byte(journalNegativeCell))
	f.Add([]byte(`{"seq":1,"type":"expanded","cell":-1,"total":100000000}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		events, err := ReadJournal(bytes.NewReader(data))
		if err != nil {
			return
		}
		chk, verr := ValidateEvents(events)
		rs, rerr := ReplayResults(events)
		if verr != nil && rerr == nil {
			t.Fatalf("replay accepted a journal ValidateEvents rejects: %v", verr)
		}
		if verr == nil && chk.Complete && (rerr != nil || len(rs.Results) != chk.Total) {
			t.Fatalf("complete journal of %d cells: replay %v, %v", chk.Total, rs, rerr)
		}
		Attribute("fuzz", events).WriteText(io.Discard)
	})
}

// TestJournalNilSafe: every method must be a no-op on a nil journal —
// call sites in the engine, dispatcher and board are unconditional.
func TestJournalNilSafe(t *testing.T) {
	var j *Journal
	jobs := determinismJobs(t)
	j.Begin(microScale(), len(jobs), nil)
	j.Leased(0, jobs[0], "w", 1)
	j.Started(0, jobs[0], "w", 1)
	j.HeartbeatMissed(0, jobs[0], "w", 1)
	j.CellFailed(0, jobs[0], "w", 1, "x")
	j.CellDone(0, jobs[0], false, "w", 0, 1)
	j.CellMerged(0, outcome{})
	j.Finish(nil)
	if j.Events() != nil || j.Path() != "" || j.Err() != nil {
		t.Fatal("nil journal returned state")
	}
	if evs, wake, closed := j.EventsSince(0); evs != nil || !closed {
		t.Fatal("nil journal subscription not closed")
	} else {
		<-wake // must be closed, not nil
	}
}

// TestAttributeReport: the wall-clock attribution over a synthetic
// journal — worker busy seconds and utilization, cache-hit ratio,
// per-group percentiles, stragglers, churn counters.
func TestAttributeReport(t *testing.T) {
	jobs := determinismJobs(t)
	j, err := NewJournal("c9", "")
	if err != nil {
		t.Fatal(err)
	}
	j.Begin(microScale(), len(jobs), nil)
	// Cell 0 from cache; the rest simulated across two workers, one
	// slow straggler, one reassignment after a missed heartbeat.
	landed(j, 0, jobs[0], true, "", 0, 0)
	j.Leased(1, jobs[1], "w1", 1)
	j.Started(1, jobs[1], "w1", 1)
	j.HeartbeatMissed(1, jobs[1], "w1", 1)
	j.Leased(1, jobs[1], "w2", 2)
	j.Started(1, jobs[1], "w2", 2)
	landed(j, 1, jobs[1], false, "w2", 8*time.Second, 2)
	for i := 2; i < len(jobs); i++ {
		w := "w1"
		if i%2 == 0 {
			w = "w2"
		}
		j.Leased(i, jobs[i], w, 1)
		j.Started(i, jobs[i], w, 1)
		landed(j, i, jobs[i], false, w, 2*time.Second, 1)
	}
	j.Finish(nil)

	rep := Attribute("c9", j.Events())
	if rep.Run != "c9" || rep.Outcome != "done" {
		t.Fatalf("header: %+v", rep)
	}
	if rep.Cells != len(jobs) || rep.Merged != len(jobs) || rep.CacheHits != 1 {
		t.Fatalf("counts: %+v", rep)
	}
	wantHitPct := 100 * float64(1) / float64(len(jobs))
	if rep.CacheHitPct != wantHitPct {
		t.Fatalf("hit pct %v, want %v", rep.CacheHitPct, wantHitPct)
	}
	if rep.Reassignments != 1 || rep.HeartbeatsMissed != 1 {
		t.Fatalf("churn: %+v", rep)
	}
	if len(rep.Workers) != 2 || rep.Workers[0].Worker != "w1" || rep.Workers[1].Worker != "w2" {
		t.Fatalf("workers: %+v", rep.Workers)
	}
	// w2 did the 8s straggler plus its share of 2s cells.
	var w2 api.WorkerReport
	for _, w := range rep.Workers {
		if w.Worker == "w2" {
			w2 = w
		}
	}
	if w2.BusySeconds < 8 {
		t.Fatalf("w2 busy %v, want >= 8 (owns the straggler)", w2.BusySeconds)
	}
	if rep.BusySeconds != rep.Workers[0].BusySeconds+rep.Workers[1].BusySeconds {
		t.Fatalf("busy total %v != sum of workers", rep.BusySeconds)
	}
	// Every simulated cell lands in a workload/kind group and the 8s
	// cell dominates its group's max.
	if len(rep.Groups) == 0 {
		t.Fatal("no groups")
	}
	var sawStragglerGroup bool
	for _, g := range rep.Groups {
		if g.Max == 8 {
			sawStragglerGroup = true
			if g.P50 > g.P95 || g.P95 > g.P99 || g.P99 > g.Max {
				t.Fatalf("percentiles not monotone: %+v", g)
			}
		}
	}
	if !sawStragglerGroup {
		t.Fatalf("straggler group missing: %+v", rep.Groups)
	}
	// Stragglers: slowest first, the 8s cell on top, at most 5.
	if len(rep.Stragglers) == 0 || len(rep.Stragglers) > maxStragglers {
		t.Fatalf("stragglers: %+v", rep.Stragglers)
	}
	if rep.Stragglers[0].Cell != 1 || rep.Stragglers[0].Seconds != 8 || rep.Stragglers[0].Worker != "w2" {
		t.Fatalf("top straggler: %+v", rep.Stragglers[0])
	}

	// The text rendering carries the load-bearing lines.
	var buf bytes.Buffer
	rep.WriteText(&buf)
	out := buf.String()
	for _, want := range []string{"run c9: done", "1 reassignments", "w2", "stragglers:"} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Fatalf("report text lacks %q:\n%s", want, out)
		}
	}

	// An empty journal attributes to a running, empty report.
	empty := Attribute("x", nil)
	if empty.Outcome != "running" || empty.Cells != 0 {
		t.Fatalf("empty attribution: %+v", empty)
	}
}

// TestAttributeTailPercentiles: group percentiles are nearest-rank
// (stats.PercentileSorted). Over 12 distinct job times the p95 rank is
// ceil(0.95*12) = 12, the maximum; rounding the rank half-up instead
// reported the 11th value and under-stated the tail.
func TestAttributeTailPercentiles(t *testing.T) {
	events := []Event{{Seq: 1, Type: EventExpanded, Cell: -1, Total: 12}}
	for i := 0; i < 12; i++ {
		events = append(events, Event{Seq: int64(i + 2), Type: EventMerged, Cell: i,
			WallMS: int64(1000 * (i + 1)), Job: &Job{Workload: "apache", Kind: core.KindNoDMR}})
	}
	rep := Attribute("c1", events)
	if len(rep.Groups) != 1 {
		t.Fatalf("groups: %+v", rep.Groups)
	}
	g := rep.Groups[0]
	if g.Jobs != 12 || g.Max != 12 || g.P50 != 6 {
		t.Fatalf("group: %+v", g)
	}
	if g.P95 != g.Max || g.P99 != g.Max {
		t.Fatalf("p95 %v / p99 %v, want the maximum %v", g.P95, g.P99, g.Max)
	}
}

// TestEngineJournalShape: a journaled local run emits the full
// vocabulary with local worker labels and per-cell wall times.
func TestEngineJournalShape(t *testing.T) {
	jobs := determinismJobs(t)
	j, err := NewJournal("local", "")
	if err != nil {
		t.Fatal(err)
	}
	var total, dropped uint64
	eng := New(Options{Parallel: 2, Journal: j, OnTrace: func(tt, dd uint64) {
		total += tt
		dropped += dd
	}})
	if _, err := eng.Run(context.Background(), microScale(), jobs); err != nil {
		t.Fatal(err)
	}
	j.Finish(nil)

	events := j.Events()
	types := journalTypes(events)
	if types[EventExpanded] != 1 || types[EventStarted] != len(jobs) ||
		types[EventCompleted] != len(jobs) || types[EventMerged] != len(jobs) {
		t.Fatalf("local journal shape: %v", types)
	}
	for i := range events {
		ev := &events[i]
		switch ev.Type {
		case EventStarted, EventCompleted:
			if len(ev.Worker) < 6 || ev.Worker[:6] != "local-" {
				t.Fatalf("local run labeled %q", ev.Worker)
			}
		case EventMerged:
			if ev.Key == "" || ev.Fp == "" {
				t.Fatalf("merged event lacks key/fingerprint: %+v", ev)
			}
		}
	}
	// The attribution over a local journal sees the pool slots as
	// workers.
	rep := Attribute("local", events)
	if rep.Outcome != "done" || len(rep.Workers) == 0 || len(rep.Workers) > 2 {
		t.Fatalf("local attribution: %+v", rep)
	}
}

// TestJournalExactlyOnceUnderWorkerDeath is the exactly-once merge
// guarantee under failure, end to end: a two-worker campaign whose
// victim worker is killed mid-lease must journal exactly one merged
// event per cell, record the missed heartbeats and reassignments the
// board actually performed, and replay from the journal byte-for-byte
// identical to the run's own rows.
func TestJournalExactlyOnceUnderWorkerDeath(t *testing.T) {
	jobs := determinismJobs(t)
	local, _ := runRows(t, New(Options{Parallel: 2}), jobs)

	victim, ts1 := startWorker(t, "victim", 2, nil)
	_, ts2 := startWorker(t, "survivor", 2, nil)

	j, err := NewJournal("kill", filepath.Join(t.TempDir(), "kill.journal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	fobs := NewFleetObs(reg)
	d := NewDispatcher(DispatchOptions{
		Workers:  []string{ts1.URL, ts2.URL},
		LeaseTTL: 400 * time.Millisecond,
		Journal:  j,
		Obs:      fobs,
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

	stopOnLease(t, j, victim)

	var rows []byte
	select {
	case out := <-res:
		if out.err != nil {
			t.Fatal(out.err)
		}
		rows = out.rows
	case <-time.After(2 * time.Minute):
		t.Fatal("campaign did not recover from worker death")
	}
	j.Finish(nil)
	if !bytes.Equal(local, rows) {
		t.Fatalf("campaign after worker death diverges:\nlocal: %s\nremote: %s", local, rows)
	}

	events := j.Events()
	chk, err := ValidateEvents(events)
	if err != nil {
		t.Fatal(err)
	}
	if !chk.Complete || chk.Merged != len(jobs) {
		t.Fatalf("journal after worker death: %+v", chk)
	}
	// Exactly one merged event per cell, already enforced by
	// ValidateEvents's strict ordering; assert the count explicitly and
	// that every completion attributes to a real worker.
	types := journalTypes(events)
	if types[EventMerged] != len(jobs) {
		t.Fatalf("merged %d events for %d cells", types[EventMerged], len(jobs))
	}
	for i := range events {
		if events[i].Type == EventCompleted && events[i].Worker == "" {
			t.Fatalf("completion without worker: %+v", events[i])
		}
	}
	// The victim died holding leases: the journal must have seen the
	// reaps, and its reassignment count must agree with the board's own
	// FleetObs counter — the journal is not an independent estimate.
	if types[EventHeartbeatMissed] == 0 {
		t.Fatalf("no heartbeat_missed events after killing a leased worker: %v", types)
	}
	snap := reg.Snapshot()
	if want := int(snap["mmm_fleet_lease_reassignments_total"]); types[EventReassigned] != want {
		t.Fatalf("journal reassignments %d, board counted %d", types[EventReassigned], want)
	}
	if want := int(snap["mmm_fleet_lease_expiries_total"]); types[EventHeartbeatMissed] != want {
		t.Fatalf("journal heartbeat_missed %d, board reaped %d", types[EventHeartbeatMissed], want)
	}

	// Replay from the on-disk journal: byte-identical rows.
	fromDisk, err := ReadJournalFile(j.Path())
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := ReplayResults(fromDisk)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := stats.WriteRowsJSON(&buf, Summarize(replayed)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rows, buf.Bytes()) {
		t.Fatalf("journal replay diverges from the run:\nrun:    %s\nreplay: %s", rows, buf.Bytes())
	}
}

// journalLines renders events as a journal file holds them: each
// event's AppendJSON encoding and a newline.
func journalLines(tb testing.TB, events []Event) []byte {
	tb.Helper()
	var b []byte
	for i := range events {
		var err error
		if b, err = events[i].AppendJSON(b); err != nil {
			tb.Fatal(err)
		}
		b = append(b, '\n')
	}
	return b
}

// TestJournalFileMatchesHistory: however the journal batches its
// writes, the file is byte for byte the history's lines — for a local
// run, an adaptive run, a 2-worker distributed run, and an all-hit run
// whose one board step journals more than journalFlushAt bytes.
func TestJournalFileMatchesHistory(t *testing.T) {
	jobs := determinismJobs(t)
	_, ts1 := startWorker(t, "w1", 2, nil)
	_, ts2 := startWorker(t, "w2", 2, nil)
	warm := figure5Jobs(t)
	for _, tc := range []struct {
		name   string
		runner func(*Journal) Runner
		spec   Spec
	}{
		{"local", func(j *Journal) Runner { return New(Options{Parallel: 2, Journal: j}) }, Spec{Jobs: jobs}},
		{"adaptive", func(j *Journal) Runner { return New(Options{Parallel: 2, Journal: j}) }, adaptiveSpec()},
		{"distributed", func(j *Journal) Runner {
			return NewDispatcher(DispatchOptions{Workers: []string{ts1.URL, ts2.URL}, LeaseTTL: 2 * time.Second, Journal: j})
		}, Spec{Jobs: jobs}},
		{"warm", func(j *Journal) Runner {
			return New(Options{Parallel: 2, Cache: warmCache(t, microScale(), warm), Journal: j})
		}, Spec{Jobs: warm}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "run.journal.jsonl")
			j, err := NewJournal(tc.name, path)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := RunSpec(context.Background(), tc.runner(j), microScale(), tc.spec); err != nil {
				t.Fatal(err)
			}
			j.Finish(nil)
			if err := j.Err(); err != nil {
				t.Fatal(err)
			}
			got, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			want := journalLines(t, j.Events())
			if !bytes.Equal(got, want) {
				t.Fatalf("journal file (%d bytes) differs from its %d events' lines (%d bytes)",
					len(got), len(j.Events()), len(want))
			}
			if tc.name == "warm" && len(got) <= journalFlushAt {
				t.Fatalf("warm journal is %d bytes, want over %d", len(got), journalFlushAt)
			}
		})
	}
}

// TestJournalCrashTail: what a crash leaves. After each board step the
// file, read while the journal is still open, holds every event so far
// as whole lines, validates, and replays to the merged prefix. An event
// that does not encode stops the file, with every line before it
// written.
func TestJournalCrashTail(t *testing.T) {
	jobs := determinismJobs(t)
	if len(jobs) < 4 {
		t.Fatalf("need >= 4 jobs, have %d", len(jobs))
	}
	sc := microScale()
	path := filepath.Join(t.TempDir(), "crash.journal.jsonl")
	j, err := NewJournal("crash", path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Finish(nil)
	onDisk := func(step string, merged int) {
		t.Helper()
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, journalLines(t, j.Events())) {
			t.Fatalf("after %s the file is not the history's lines:\n%s", step, data)
		}
		events, err := ReadJournal(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		rs, err := ReplayResults(events)
		if err != nil {
			t.Fatalf("after %s: %v", step, err)
		}
		if len(rs.Results) != merged {
			t.Fatalf("after %s the file replays %d cells, want %d", step, len(rs.Results), merged)
		}
		for i, r := range rs.Results {
			if r.Job != jobs[i] {
				t.Fatalf("after %s replayed cell %d is %+v, want %+v", step, i, r.Job, jobs[i])
			}
		}
	}

	// Cells 0 and 1 are cached: the board's first step merges them.
	b := newBoard(fixedPlan(sc, jobs), boardOptions{cache: warmCache(t, sc, jobs[:2]), journal: j, maxAttempts: 1})
	defer b.close(errors.New("test over"))
	onDisk("newBoard", 2)
	l2, l3 := b.next("w"), b.next("w")
	onDisk("next", 2)
	// Cell 3 lands first and waits for cell 2.
	b.finish(l3, warmMetrics(3, jobs[3]), nil)
	onDisk("an out-of-order finish", 2)
	b.finish(l2, warmMetrics(2, jobs[2]), nil)
	onDisk("finish", 4)

	// An event that does not encode: the lines before it are written,
	// none after it.
	path = filepath.Join(t.TempDir(), "nan.journal.jsonl")
	j2, err := NewJournal("nan", path)
	if err != nil {
		t.Fatal(err)
	}
	j2.Begin(sc, len(jobs), nil)
	landed(j2, 0, jobs[0], true, "", 0, 0)
	good := len(j2.Events())
	j2.WaveScheduled(1, jobs[1], math.NaN())
	landed(j2, 1, jobs[1], true, "", 0, 0)
	if j2.Err() == nil {
		t.Fatal("a NaN half-width encoded")
	}
	want := journalLines(t, j2.Events()[:good])
	holdsGoodLines := func(when string) {
		t.Helper()
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, want) {
			t.Fatalf("%s journal after a failed encode holds:\n%s\nwant the %d lines before it:\n%s", when, data, good, want)
		}
	}
	holdsGoodLines("open")
	j2.Finish(nil)
	holdsGoodLines("finished")
}

// TestReadJournalTornTail: a last line a crash cut short (no newline,
// does not decode) is dropped and the whole lines before it are the
// journal; a malformed line that ends in a newline still fails, naming
// its line.
func TestReadJournalTornTail(t *testing.T) {
	events := goodJournal(t)
	data := journalLines(t, events)
	end := 0
	for i := range events {
		start := end
		end += bytes.IndexByte(data[start:], '\n') + 1
		for _, tc := range []struct {
			cut, want int
		}{
			{start + (end-start)/2, i}, // mid-line: torn
			{end - 1, i + 1},           // whole but for its newline
			{end, i + 1},
		} {
			got, err := ReadJournal(bytes.NewReader(data[:tc.cut]))
			if err != nil {
				t.Fatalf("cut at byte %d of line %d: %v", tc.cut, i+1, err)
			}
			if len(got) != tc.want || (tc.want > 0 && got[tc.want-1].Seq != events[tc.want-1].Seq) {
				t.Fatalf("cut at byte %d of line %d: %d events, want %d", tc.cut, i+1, len(got), tc.want)
			}
		}
	}

	// The same half line followed by a newline is corrupt, not torn.
	second := bytes.IndexByte(data, '\n') + 1
	third := second + bytes.IndexByte(data[second:], '\n') + 1
	bad := append(append(append([]byte{}, data[:second]...), data[second:third-10]...), '\n')
	_, err := ReadJournal(bytes.NewReader(bad))
	if err == nil || !strings.Contains(err.Error(), "journal line 2") {
		t.Fatalf("malformed line 2 ending in a newline: %v", err)
	}
	if _, err := ReadJournal(bytes.NewReader(append(bad, data[third:]...))); err == nil {
		t.Fatal("malformed line in the middle accepted")
	}
}
