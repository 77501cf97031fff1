package main

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/api"
	"repro/internal/campaign"
)

// sseFrame is one parsed server-sent event.
type sseFrame struct {
	id    int64
	event string
	data  string
}

// readSSE consumes an SSE response body until the terminal "end" frame
// (which is returned as the last element) or EOF.
func readSSE(t *testing.T, req *http.Request) []sseFrame {
	t.Helper()
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	var frames []sseFrame
	var cur sseFrame
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if cur.event != "" || cur.data != "" {
				frames = append(frames, cur)
				if cur.event == "end" {
					return frames
				}
			}
			cur = sseFrame{}
		case strings.HasPrefix(line, "id: "):
			n, err := strconv.ParseInt(line[4:], 10, 64)
			if err != nil {
				t.Fatalf("bad id line %q", line)
			}
			cur.id = n
		case strings.HasPrefix(line, "event: "):
			cur.event = line[7:]
		case strings.HasPrefix(line, "data: "):
			cur.data = line[6:]
		case strings.HasPrefix(line, ":"):
			// keepalive comment
		default:
			t.Fatalf("unexpected SSE line %q", line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	t.Fatal("stream ended without an end frame")
	return nil
}

// TestEventsStreamsFullJournal: GET /campaigns/{id}/events replays a
// finished run's journal as SSE — expanded first, one merged frame per
// cell in expansion order, strictly increasing ids, a terminal end
// frame — and the merged payloads parse back into journal events.
func TestEventsStreamsFullJournal(t *testing.T) {
	ts := testService(t)
	st := submitAndWait(t, ts, micro)
	if st.Status != "done" {
		t.Fatalf("campaign: %+v", st)
	}

	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/campaigns/"+st.ID+"/events", nil)
	frames := readSSE(t, req)
	if len(frames) < 3 {
		t.Fatalf("only %d frames", len(frames))
	}
	if frames[0].event != "expanded" {
		t.Fatalf("first frame %q, want expanded", frames[0].event)
	}
	if last := frames[len(frames)-1]; last.event != "end" || !strings.Contains(last.data, st.ID) {
		t.Fatalf("last frame: %+v", last)
	}

	var lastID int64
	merged, nextCell := 0, 0
	for _, f := range frames[:len(frames)-1] {
		if f.id <= lastID {
			t.Fatalf("ids not increasing: %d after %d", f.id, lastID)
		}
		lastID = f.id
		var ev campaign.Event
		if err := json.Unmarshal([]byte(f.data), &ev); err != nil {
			t.Fatalf("frame data %q: %v", f.data, err)
		}
		if string(ev.Type) != f.event || ev.Seq != f.id {
			t.Fatalf("frame fields disagree with payload: %+v vs %+v", f, ev)
		}
		if ev.Type == campaign.EventMerged {
			if ev.Cell != nextCell {
				t.Fatalf("merged cell %d, want %d", ev.Cell, nextCell)
			}
			nextCell++
			merged++
		}
	}
	if merged != st.Jobs {
		t.Fatalf("streamed %d merged frames for %d jobs", merged, st.Jobs)
	}
}

// TestEventsStreamsLive: a client connected while the campaign is
// still running receives history-then-live frames through to the end —
// the same complete, ordered journal a post-hoc reader gets.
func TestEventsStreamsLive(t *testing.T) {
	ts := testService(t)
	code, data := do(t, http.MethodPost, ts.URL+"/v1/campaigns", micro)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", code, data)
	}
	var st api.RunStatus
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatal(err)
	}

	// Connect immediately: the run is typically still executing, so the
	// stream crosses the history/live boundary.
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/campaigns/"+st.ID+"/events", nil)
	frames := readSSE(t, req)
	types := map[string]int{}
	for _, f := range frames {
		types[f.event]++
	}
	if types["expanded"] != 1 || types["merged"] == 0 || types["end"] != 1 {
		t.Fatalf("live stream shape: %v", types)
	}
	fin := submitAndWait(t, ts, micro) // second run, same cells: all cached
	if types["merged"] != fin.Jobs {
		t.Fatalf("live stream merged %d frames for %d jobs", types["merged"], fin.Jobs)
	}
}

// TestEventsResume: ?after=N (and the standard Last-Event-ID header)
// resumes the stream mid-journal without replaying delivered events;
// a malformed resume point answers 400.
func TestEventsResume(t *testing.T) {
	ts := testService(t)
	st := submitAndWait(t, ts, micro)
	if st.Status != "done" {
		t.Fatalf("campaign: %+v", st)
	}
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/campaigns/"+st.ID+"/events", nil)
	full := readSSE(t, req)
	cut := full[len(full)/2]
	if cut.id == 0 {
		t.Fatalf("cut frame has no id: %+v", cut)
	}

	// Query resume.
	req, _ = http.NewRequest(http.MethodGet,
		ts.URL+"/v1/campaigns/"+st.ID+"/events?after="+strconv.FormatInt(cut.id, 10), nil)
	tail := readSSE(t, req)
	if want := full[len(full)/2+1:]; len(tail) != len(want) {
		t.Fatalf("resumed stream has %d frames, want %d", len(tail), len(want))
	} else if tail[0].id != want[0].id {
		t.Fatalf("resume starts at id %d, want %d", tail[0].id, want[0].id)
	}

	// Header resume behaves identically.
	req, _ = http.NewRequest(http.MethodGet, ts.URL+"/v1/campaigns/"+st.ID+"/events", nil)
	req.Header.Set("Last-Event-ID", strconv.FormatInt(cut.id, 10))
	viaHeader := readSSE(t, req)
	if len(viaHeader) != len(tail) || viaHeader[0].id != tail[0].id {
		t.Fatalf("header resume diverges from query resume: %d/%d frames",
			len(viaHeader), len(tail))
	}

	// Malformed resume points are rejected, not treated as zero.
	for _, bad := range []string{"?after=nope", "?after=-3"} {
		if code, _ := do(t, http.MethodGet, ts.URL+"/v1/campaigns/"+st.ID+"/events"+bad, ""); code != http.StatusBadRequest {
			t.Errorf("resume %s: code %d, want 400", bad, code)
		}
	}
	if code, _ := do(t, http.MethodGet, ts.URL+"/v1/campaigns/c99/events", ""); code != http.StatusNotFound {
		t.Errorf("events of unknown run: %d, want 404", code)
	}
}

// TestStatusCarriesAttribution: once a run is terminal, GET
// /campaigns/{id} includes the journal-derived wall-clock attribution.
func TestStatusCarriesAttribution(t *testing.T) {
	ts := testService(t)
	st := submitAndWait(t, ts, micro)
	if st.Status != "done" {
		t.Fatalf("campaign: %+v", st)
	}
	if st.Attribution == nil {
		t.Fatal("terminal status has no attribution report")
	}
	rep := st.Attribution
	if rep.Outcome != "done" || rep.Cells != st.Jobs || rep.Merged != st.Jobs {
		t.Fatalf("attribution: %+v", rep)
	}
	if len(rep.Workers) == 0 || rep.BusySeconds <= 0 {
		t.Fatalf("attribution has no worker time: %+v", rep)
	}
	// A warm rerun attributes everything to the cache.
	st2 := submitAndWait(t, ts, micro)
	if st2.Attribution == nil || st2.Attribution.CacheHits != st2.Jobs ||
		st2.Attribution.CacheHitPct != 100 {
		t.Fatalf("warm attribution: %+v", st2.Attribution)
	}
}

// TestJournalFilesPersistAndEvict: with -journals set, each run writes
// <dir>/<id>.journal.jsonl, the file validates and replays, the
// retention cap deletes evicted runs' files, and /metrics reports the
// remaining journal bytes.
func TestJournalFilesPersistAndEvict(t *testing.T) {
	cache, err := campaign.NewDiskCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	srv := newServer(context.Background(), cache, 2, 2)
	srv.retain = 1
	srv.journalDir = dir
	ts := httptest.NewServer(srv.handler())
	t.Cleanup(ts.Close)

	var last api.RunStatus
	for i := 0; i < 3; i++ {
		last = submitAndWait(t, ts, micro)
		if last.Status != "done" {
			t.Fatalf("run %d: %+v", i, last)
		}
	}

	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != last.ID+".journal.jsonl" {
		names := make([]string, 0, len(entries))
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Fatalf("journal dir after eviction: %v, want only %s.journal.jsonl", names, last.ID)
	}

	// The surviving journal is a valid, complete record.
	events, err := campaign.ReadJournalFile(filepath.Join(dir, entries[0].Name()))
	if err != nil {
		t.Fatal(err)
	}
	chk, err := campaign.ValidateEvents(events)
	if err != nil || !chk.Complete || chk.Outcome != "done" {
		t.Fatalf("surviving journal: %+v, %v", chk, err)
	}
	if _, err := campaign.ReplayResults(events); err != nil {
		t.Fatal(err)
	}

	// /metrics reports the on-disk journal footprint.
	if n := journalBytes(dir); n <= 0 {
		t.Fatalf("journalBytes(%s) = %d, want > 0", dir, n)
	}
	_, data := do(t, http.MethodGet, ts.URL+"/metrics", "")
	if !strings.Contains(string(data), "mmmd_journal_bytes") {
		t.Fatalf("mmmd_journal_bytes missing from /metrics:\n%s", data)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "mmmd_journal_bytes ") {
			if v, err := strconv.ParseFloat(strings.Fields(line)[1], 64); err != nil || v <= 0 {
				t.Fatalf("mmmd_journal_bytes = %q, want > 0", line)
			}
		}
	}
}

// TestStatusWriterFlushes: the access-log ResponseWriter wrapper must
// forward Flush, or SSE frames would buffer until the run ends.
func TestStatusWriterFlushes(t *testing.T) {
	rec := httptest.NewRecorder()
	sw := &statusWriter{ResponseWriter: rec, code: http.StatusOK}
	if _, ok := interface{}(sw).(http.Flusher); !ok {
		t.Fatal("statusWriter does not implement http.Flusher")
	}
	sw.Flush()
	if !rec.Flushed {
		t.Fatal("Flush not forwarded to the underlying writer")
	}
}
