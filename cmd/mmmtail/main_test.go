package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/campaign"
)

// TestParseSSE: the frame grammar — id/event/data lines, keepalive
// comments, blank-line dispatch, the terminal end frame.
func TestParseSSE(t *testing.T) {
	stream := "id: 1\nevent: expanded\ndata: {\"seq\":1,\"type\":\"expanded\",\"cell\":-1,\"total\":4}\n\n" +
		": keepalive\n\n" +
		"id: 2\nevent: started\ndata: {\"seq\":2,\"type\":\"started\",\"cell\":0}\n\n" +
		"event: end\ndata: {\"run\":\"c1\"}\n\n"
	var events []campaign.Event
	ended := false
	err := parseSSE(strings.NewReader(stream),
		func(ev campaign.Event) { events = append(events, ev) },
		func() { ended = true })
	if err != nil {
		t.Fatal(err)
	}
	if !ended {
		t.Fatal("end frame not dispatched")
	}
	if len(events) != 2 {
		t.Fatalf("parsed %d events, want 2", len(events))
	}
	if events[0].Type != campaign.EventExpanded || events[0].Total != 4 || events[0].Seq != 1 {
		t.Fatalf("first event: %+v", events[0])
	}
	if events[1].Type != campaign.EventStarted || events[1].Cell != 0 {
		t.Fatalf("second event: %+v", events[1])
	}
}

// TestParseSSEErrors: a malformed payload is an error, and a stream
// that ends without the terminal frame is reported so -follow
// reconnects instead of treating a dropped connection as completion.
func TestParseSSEErrors(t *testing.T) {
	err := parseSSE(strings.NewReader("event: merged\ndata: {not json\n\n"),
		func(campaign.Event) {}, func() {})
	if err == nil || !strings.Contains(err.Error(), "bad event payload") {
		t.Fatalf("malformed payload: %v", err)
	}

	var n int
	err = parseSSE(strings.NewReader(
		"id: 1\nevent: started\ndata: {\"seq\":1,\"type\":\"started\",\"cell\":0}\n\n"),
		func(campaign.Event) { n++ }, func() { t.Fatal("end dispatched") })
	if err == nil || !strings.Contains(err.Error(), "without an end frame") {
		t.Fatalf("truncated stream: %v", err)
	}
	if n != 1 {
		t.Fatalf("events before truncation: %d, want 1", n)
	}

	// Events after the end frame are never delivered — parsing stops.
	n = 0
	err = parseSSE(strings.NewReader(
		"event: end\ndata: {\"run\":\"c1\"}\n\n"+
			"id: 9\nevent: started\ndata: {\"seq\":9,\"type\":\"started\",\"cell\":3}\n\n"),
		func(campaign.Event) { n++ }, func() {})
	if err != nil || n != 0 {
		t.Fatalf("post-end parsing: err=%v events=%d", err, n)
	}
}

// TestReportRequiredEventTypes: -report exits 0 on a complete journal
// holding every required event type, and 1 when a listed type is
// absent, even though the journal itself is valid and complete.
func TestReportRequiredEventTypes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c1.journal.jsonl")
	journal := `{"seq":1,"time":"2026-01-01T00:00:00Z","type":"expanded","run":"c1","cell":-1,"total":1}
{"seq":2,"time":"2026-01-01T00:00:01Z","type":"leased","cell":0,"worker":"w1","attempt":1}
{"seq":3,"time":"2026-01-01T00:00:01Z","type":"started","cell":0,"worker":"w1","attempt":1}
{"seq":4,"time":"2026-01-01T00:00:02Z","type":"completed","cell":0,"worker":"w1","attempt":1,"wall_ms":1000}
{"seq":5,"time":"2026-01-01T00:00:02Z","type":"merged","cell":0,"worker":"w1","wall_ms":1000,"job":{},"metrics":{}}
`
	if err := os.WriteFile(path, []byte(journal), 0o644); err != nil {
		t.Fatal(err)
	}
	if code := reportFile(path, "expanded,leased,started,completed,merged", true); code != 0 {
		t.Fatalf("complete journal with every required type: exit %d, want 0", code)
	}
	if code := reportFile(path, "expanded, reassigned", true); code != 1 {
		t.Fatalf("journal without a required type: exit %d, want 1", code)
	}
}
