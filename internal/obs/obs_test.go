package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/sim"
)

// TestNilSafety exercises the zero-cost-disabled contract: every
// instrument and the recorder must be inert through a nil receiver.
func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("x", "")
	h := r.Histogram("z", "", nil)
	if c != nil || h != nil {
		t.Fatalf("nil registry handed out non-nil instruments: %v %v", c, h)
	}
	c.Inc()
	c.Add(3)
	h.Observe(0.5)
	if c.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil instruments retained state")
	}
	r.RegisterCollector(func(emit func(Sample)) { t.Fatal("collector ran on nil registry") })
	if err := r.WritePrometheus(&bytes.Buffer{}); err != nil {
		t.Fatalf("WritePrometheus on nil registry: %v", err)
	}
	if snap := r.Snapshot(); snap != nil {
		t.Fatalf("Snapshot on nil registry: %v", snap)
	}

	var rec *Recorder
	rec.Emit(Event{Kind: KindMark})
	rec.Reset()
	if rec.Total() != 0 || rec.Dropped() != 0 || rec.Events() != nil {
		t.Fatal("nil recorder retained state")
	}
	if err := rec.WriteJSONL(&bytes.Buffer{}); err != nil {
		t.Fatalf("WriteJSONL on nil recorder: %v", err)
	}
	if err := rec.WriteChromeTrace(&bytes.Buffer{}, "p"); err != nil {
		t.Fatalf("WriteChromeTrace on nil recorder: %v", err)
	}
}

// TestExpositionRoundTrip renders a populated registry and feeds the
// page back through the package's own strict parser.
func TestExpositionRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("jobs_total", "Jobs.", "kind", "mmm-ipc").Add(7)
	r.Counter("jobs_total", "Jobs.", "kind", "reunion").Inc()
	h := r.Histogram("latency_seconds", "Latency.", []float64{0.1, 1, 10})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(100)
	r.RegisterCollector(func(emit func(Sample)) {
		emit(Sample{Name: "dyn", Help: "Dynamic.", Type: "gauge",
			Labels: []string{"w", "n1"}, Value: 2})
	})
	// A fleet peer names itself: the rendered value uses only the
	// format's three escapes, keeps a tab and U+2028 as they are and
	// replaces invalid UTF-8 with U+FFFD.
	workers := []struct{ name, rendered string }{
		{"tab\there", "tab\there"},
		{"ls\u2028sep", "ls\u2028sep"},
		{"bad\xffutf8", "bad\ufffdutf8"},
		{"q\"b\\s\nn", `q\"b\\s\nn`},
	}
	r.RegisterCollector(func(emit func(Sample)) {
		for _, w := range workers {
			emit(Sample{Name: "worker_age_seconds", Labels: []string{"worker", w.name}, Value: 1})
		}
	})

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	text := buf.String()

	fams, err := ParseExposition(strings.NewReader(text))
	if err != nil {
		t.Fatalf("ParseExposition rejected our own output: %v\n%s", err, text)
	}
	if f := fams["jobs_total"]; f == nil || f.Type != "counter" || len(f.Series) != 2 {
		t.Fatalf("jobs_total family wrong: %+v", fams["jobs_total"])
	}
	if f := fams["latency_seconds"]; f == nil || f.Type != "histogram" {
		t.Fatalf("latency_seconds family wrong: %+v", fams["latency_seconds"])
	}
	// 3 finite buckets + +Inf + sum + count fold into one family.
	if got := len(fams["latency_seconds"].Series); got != 6 {
		t.Fatalf("latency_seconds series = %d, want 6\n%s", got, text)
	}
	if f := fams["dyn"]; f == nil || f.Type != "gauge" || len(f.Series) != 1 {
		t.Fatalf("collector family wrong: %+v", fams["dyn"])
	}
	if f := fams["worker_age_seconds"]; f == nil || len(f.Series) != len(workers) {
		t.Fatalf("worker family wrong: %+v", fams["worker_age_seconds"])
	}
	if got := TotalSeries(fams); got != 9+len(workers) {
		t.Fatalf("TotalSeries = %d, want %d\n%s", got, 9+len(workers), text)
	}
	for _, w := range workers {
		if want := `worker_age_seconds{worker="` + w.rendered + `"} 1`; !strings.Contains(text, want) {
			t.Errorf("exposition missing %q\n%s", want, text)
		}
	}

	// Cumulative bucket semantics: 0.05 and 0.5 land at or below le="1",
	// the 100 only in +Inf.
	for _, want := range []string{
		`latency_seconds_bucket{le="0.1"} 1`,
		`latency_seconds_bucket{le="1"} 2`,
		`latency_seconds_bucket{le="10"} 2`,
		`latency_seconds_bucket{le="+Inf"} 3`,
		`latency_seconds_count 3`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q\n%s", want, text)
		}
	}

	// Deterministic output: a second render is byte-identical.
	var again bytes.Buffer
	if err := r.WritePrometheus(&again); err != nil {
		t.Fatalf("second WritePrometheus: %v", err)
	}
	if again.String() != text {
		t.Fatal("exposition is not deterministic across renders")
	}
}

// TestRegistryIdempotentRegistration checks that re-registering the
// same (name, labels) returns the same instrument.
func TestRegistryIdempotentRegistration(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("c", "h", "k", "v")
	b := r.Counter("c", "h", "k", "v")
	if a != b {
		t.Fatal("same (name, labels) produced distinct counters")
	}
	a.Add(2)
	if b.Value() != 2 {
		t.Fatalf("shared counter value = %d, want 2", b.Value())
	}
	// Label order must not matter: canonical rendering sorts keys.
	c1 := r.Counter("l", "h", "a", "1", "b", "2")
	c2 := r.Counter("l", "h", "b", "2", "a", "1")
	if c1 != c2 {
		t.Fatal("label order produced distinct counters")
	}
}

func TestSnapshot(t *testing.T) {
	r := NewRegistry()
	r.Counter("c", "h").Add(4)
	r.Histogram("h", "h", []float64{1}).Observe(0.5)
	r.RegisterCollector(func(emit func(Sample)) {
		emit(Sample{Name: "d", Value: 9})
	})
	snap := r.Snapshot()
	if snap["c"] != 4 {
		t.Errorf("snapshot c = %v, want 4", snap["c"])
	}
	if snap["h_count"] != 1 || snap["h_sum"] != 0.5 {
		t.Errorf("snapshot histogram = count %v sum %v", snap["h_count"], snap["h_sum"])
	}
	if snap["d"] != 9 {
		t.Errorf("snapshot collector sample = %v, want 9", snap["d"])
	}
}

// TestRecorderRing exercises flight-recorder semantics: the ring keeps
// the newest events and counts what fell off.
func TestRecorderRing(t *testing.T) {
	rec := NewRecorder(4)
	for i := 0; i < 10; i++ {
		rec.Emit(Event{Kind: KindMark, Cycle: sim.Cycle(i), Pair: -1, Core: -1})
	}
	if rec.Total() != 10 {
		t.Fatalf("Total = %d, want 10", rec.Total())
	}
	if rec.Dropped() != 6 {
		t.Fatalf("Dropped = %d, want 6", rec.Dropped())
	}
	evs := rec.Events()
	if len(evs) != 4 {
		t.Fatalf("retained %d events, want 4", len(evs))
	}
	for i, ev := range evs {
		if want := sim.Cycle(6 + i); ev.Cycle != want {
			t.Fatalf("event %d cycle = %d, want %d (emission order lost)", i, ev.Cycle, want)
		}
	}
	rec.Reset()
	if rec.Total() != 0 || len(rec.Events()) != 0 {
		t.Fatal("Reset left state behind")
	}
}

func TestRecorderJSONL(t *testing.T) {
	rec := NewRecorder(8)
	rec.Emit(Event{Kind: KindEnterDMR, Cycle: 100, Dur: 40, Pair: 2, Core: 4, Cause: "timer", Arg: 12})
	rec.Emit(Event{Kind: KindFault, Cycle: 150, Pair: 0, Core: 1, Cause: "machine-check", Arg: 3})
	var buf bytes.Buffer
	if err := rec.WriteJSONL(&buf); err != nil {
		t.Fatalf("WriteJSONL: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("JSONL lines = %d, want 2", len(lines))
	}
	var ev Event
	if err := json.Unmarshal([]byte(lines[0]), &ev); err != nil {
		t.Fatalf("line 0 not JSON: %v", err)
	}
	if ev.Kind != KindEnterDMR || ev.Cycle != 100 || ev.Dur != 40 || ev.Cause != "timer" {
		t.Fatalf("round-tripped event = %+v", ev)
	}
}

// TestChromeTrace checks the trace-event JSON shape perfetto loads:
// top-level traceEvents, span events with dur, instant events, and
// process/thread metadata.
func TestChromeTrace(t *testing.T) {
	rec := NewRecorder(16)
	rec.Emit(Event{Kind: KindEnterDMR, Cycle: 100, Dur: 40, Pair: 1, Core: 2, Cause: "timer", Arg: 12})
	rec.Emit(Event{Kind: KindDecision, Cycle: 140, Pair: 1, Core: 2, Cause: "timer/taken", Arg: 1})
	rec.Emit(Event{Kind: KindFault, Cycle: 200, Pair: -1, Core: 5, Cause: "mismatch", Arg: 3})
	rec.Emit(Event{Kind: KindBulkStep, Cycle: 0, Dur: 300, Pair: -1, Core: -1, Arg: 16})

	var buf bytes.Buffer
	if err := rec.WriteChromeTrace(&buf, "mmm-ipc/utilization/apache"); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	var spans, instants, metas int
	sawProcess := false
	for _, ev := range doc.TraceEvents {
		switch ev["ph"] {
		case "X":
			spans++
			if _, ok := ev["dur"].(float64); !ok {
				t.Errorf("span without dur: %v", ev)
			}
		case "i":
			instants++
		case "M":
			metas++
			if ev["name"] == "process_name" {
				sawProcess = true
				args := ev["args"].(map[string]any)
				if args["name"] != "mmm-ipc/utilization/apache" {
					t.Errorf("process name = %v", args["name"])
				}
			}
		}
	}
	if spans != 2 || instants != 2 {
		t.Fatalf("spans=%d instants=%d, want 2 and 2", spans, instants)
	}
	if !sawProcess || metas < 3 {
		t.Fatalf("metadata incomplete: sawProcess=%v metas=%d", sawProcess, metas)
	}
	// The fault on core 5 must land on pair 2's track, offset by the
	// pair tid base.
	for _, ev := range doc.TraceEvents {
		if ev["name"] == string(KindFault) && ev["ph"] == "i" {
			if tid := ev["tid"].(float64); tid != float64(tidPairBase+2) {
				t.Errorf("fault tid = %v, want %d", tid, tidPairBase+2)
			}
		}
	}
}

// FuzzParseExposition: the strict exposition parser returns an error or
// well-formed families for any input, and never panics; and a page
// WritePrometheus renders with the input as a label value parses. The
// corpus starts from the registry's own output (a counter, a labelled
// counter and a histogram) plus malformed and edge-case pages.
func FuzzParseExposition(f *testing.F) {
	r := NewRegistry()
	r.Counter("runs_total", "Runs.").Add(3)
	r.Counter("jobs_total", "Jobs.", "kind", "mmm-ipc").Inc()
	h := r.Histogram("latency_seconds", "Latency.", []float64{0.1, 1})
	h.Observe(0.5)
	h.Observe(100)
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.String())
	for _, s := range []string{
		"metric_name\n", "m{le=} 3\n", "# TYPE m counter\n# TYPE m gauge\nm 1\n",
		"m_bucket{le=\"1\"} 2\n", "m{a=\"b\\\"c\"} 4 1700000000\n",
		"tab\there", "ls\u2028sep", "bad\xffutf8",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, page string) {
		reg := NewRegistry()
		reg.Counter("jobs_total", "Jobs.", "worker", page).Inc()
		var buf bytes.Buffer
		if err := reg.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		if _, err := ParseExposition(&buf); err != nil {
			t.Fatalf("label value %q: own page refused: %v\n%s", page, err, buf.String())
		}

		fams, err := ParseExposition(strings.NewReader(page))
		if err != nil {
			return
		}
		for name, fam := range fams {
			if fam == nil || fam.Name != name {
				t.Fatalf("family %q recorded as %+v", name, fam)
			}
		}
	})
}

// TestParseExpositionRejects spot-checks the strict-parser failure
// modes CI relies on.
func TestParseExpositionRejects(t *testing.T) {
	for _, bad := range []string{
		"metric_name\n",                           // no value
		"1bad_name 3\n",                           // bad metric name
		`m{le=} 3` + "\n",                         // bad label syntax
		"m notanumber\n",                          // bad value
		`m{w="a\tb"} 1` + "\n",                    // an escape the format does not define
		"m{w=\"\xff\"} 1\n",                       // not UTF-8
		"# TYPE m counter\n# TYPE m gauge\nm 1\n", // re-typed family
	} {
		if _, err := ParseExposition(strings.NewReader(bad)); err == nil {
			t.Errorf("ParseExposition accepted %q", bad)
		}
	}
	// And a well-formed page with comments passes.
	good := "# scraped at some point\n# HELP m help text\n# TYPE m counter\nm{a=\"b\"} 4\nm 2 1700000000\n"
	fams, err := ParseExposition(strings.NewReader(good))
	if err != nil {
		t.Fatalf("ParseExposition rejected valid page: %v", err)
	}
	if len(fams["m"].Series) != 2 {
		t.Fatalf("series = %d, want 2", len(fams["m"].Series))
	}
}
