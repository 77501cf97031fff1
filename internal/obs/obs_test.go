package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/sim"
)

// nilSafeTypes is the nil table: every type of the package with an
// exported pointer-receiver method. Instrumented code holds a
// possibly-nil pointer to each when telemetry is off.
var nilSafeTypes = []any{(*Counter)(nil), (*Histogram)(nil), (*Registry)(nil), (*Recorder)(nil)}

// TestNilSafety checks the zero-cost-disabled contract: every exported
// method of every type in nilSafeTypes, called on a nil receiver, once
// with zero arguments and once with non-zero ones, must not panic,
// must return zero values, and must not call a func argument, write to
// a writer argument or create a file at a path argument. A parse of
// the package's non-test files fails the test when a type with an
// exported pointer-receiver method is missing from the table.
func TestNilSafety(t *testing.T) {
	listed := map[string]bool{}
	for _, v := range nilSafeTypes {
		listed[reflect.TypeOf(v).Elem().Name()] = true
	}
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Recv == nil || !fn.Name.IsExported() {
				continue
			}
			if star, ok := fn.Recv.List[0].Type.(*ast.StarExpr); ok && !listed[types.ExprString(star.X)] {
				t.Errorf("%s: (*%s).%s is exported, but *%s is missing from nilSafeTypes",
					fset.Position(fn.Pos()), types.ExprString(star.X), fn.Name.Name, types.ExprString(star.X))
			}
		}
	}

	dir := t.TempDir()
	for _, v := range nilSafeTypes {
		typ := reflect.TypeOf(v)
		for i := 0; i < typ.NumMethod(); i++ {
			m := typ.Method(i)
			for _, nonZero := range []bool{false, true} {
				args := []reflect.Value{reflect.Zero(typ)}
				for j := 1; j < m.Type.NumIn(); j++ {
					args = append(args, nilSafetyArg(t, m.Type.In(j), nonZero, dir))
				}
				name := fmt.Sprintf("(*%s).%s with zero arguments", typ.Elem().Name(), m.Name)
				if nonZero {
					name = fmt.Sprintf("(*%s).%s with non-zero arguments", typ.Elem().Name(), m.Name)
				}
				callOnNil(t, name, m, args)
			}
		}
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 0 {
		t.Errorf("nil receivers created %d files (%v)", len(entries), err)
	}
}

// callOnNil calls method m with args, the first a nil receiver, and
// requires it not to panic and to return zero values.
func callOnNil(t *testing.T, name string, m reflect.Method, args []reflect.Value) {
	defer func() {
		if p := recover(); p != nil {
			t.Errorf("%s on a nil receiver: panic: %v", name, p)
		}
	}()
	call := m.Func.Call
	if m.Type.IsVariadic() {
		call = m.Func.CallSlice
	}
	for i, out := range call(args) {
		if !out.IsZero() {
			t.Errorf("%s on a nil receiver: result %d = %v, want the zero value", name, i, out)
		}
	}
}

// nilSafetyArg returns the zero value of typ or, with nonZero, a value
// that a method without its nil guard would act on: a path inside the
// empty dir for a string, 1 for a number, a one-element slice, a
// struct of such fields, a writer that fails the test on Write and a
// func that fails the test if it is called.
func nilSafetyArg(t *testing.T, typ reflect.Type, nonZero bool, dir string) reflect.Value {
	v := reflect.New(typ).Elem()
	if !nonZero {
		return v
	}
	switch typ.Kind() {
	case reflect.String:
		v.SetString(filepath.Join(dir, "out"))
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
		reflect.Float32, reflect.Float64:
		v.Set(reflect.ValueOf(1).Convert(typ))
	case reflect.Slice:
		v.Set(reflect.Append(v, nilSafetyArg(t, typ.Elem(), true, dir)))
	case reflect.Struct:
		for i := 0; i < typ.NumField(); i++ {
			if typ.Field(i).IsExported() {
				v.Field(i).Set(nilSafetyArg(t, typ.Field(i).Type, true, dir))
			}
		}
	case reflect.Func:
		v.Set(reflect.MakeFunc(typ, func([]reflect.Value) []reflect.Value {
			t.Errorf("a nil receiver called its %v argument", typ)
			out := make([]reflect.Value, typ.NumOut())
			for i := range out {
				out[i] = reflect.Zero(typ.Out(i))
			}
			return out
		}))
	case reflect.Interface:
		w := reflect.ValueOf(failWriter{t})
		if !w.Type().Implements(typ) {
			t.Fatalf("no non-zero %v argument: extend nilSafetyArg", typ)
		}
		v.Set(w)
	default:
		t.Fatalf("no non-zero %v argument: extend nilSafetyArg", typ)
	}
	return v
}

// failWriter fails the test when written to.
type failWriter struct{ t *testing.T }

func (w failWriter) Write(p []byte) (int, error) {
	w.t.Errorf("a nil receiver wrote %q to its writer argument", p)
	return len(p), nil
}

// TestExpositionRoundTrip renders a populated registry and feeds the
// page back through the package's own strict parser.
func TestExpositionRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("jobs_total", "Jobs.", "kind", "mmm-ipc").Add(7)
	r.Counter("jobs_total", "Jobs.", "kind", "reunion").Inc()
	// One observation each in the lowest bucket, a middle one and +Inf.
	h := r.Histogram("latency_seconds", "Latency.")
	h.Observe(0.0005)
	h.Observe(0.5)
	h.Observe(1000)
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
	// The finite buckets + +Inf + sum + count fold into one family.
	if got, want := len(fams["latency_seconds"].Series), len(DefBuckets)+3; got != want {
		t.Fatalf("latency_seconds series = %d, want %d\n%s", got, want, text)
	}
	if f := fams["dyn"]; f == nil || f.Type != "gauge" || len(f.Series) != 1 {
		t.Fatalf("collector family wrong: %+v", fams["dyn"])
	}
	if f := fams["worker_age_seconds"]; f == nil || len(f.Series) != len(workers) {
		t.Fatalf("worker family wrong: %+v", fams["worker_age_seconds"])
	}
	if got, want := TotalSeries(fams), 2+len(DefBuckets)+3+1+len(workers); got != want {
		t.Fatalf("TotalSeries = %d, want %d\n%s", got, want, text)
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
	// One observation each in the lowest bucket, a middle one and +Inf,
	// all exact in binary so their sum is too.
	h := r.Histogram("h", "h")
	h.Observe(1.0 / 1024)
	h.Observe(0.5)
	h.Observe(1024)
	r.RegisterCollector(func(emit func(Sample)) {
		emit(Sample{Name: "d", Value: 9})
	})
	snap := r.Snapshot()
	if snap["c"] != 4 {
		t.Errorf("snapshot c = %v, want 4", snap["c"])
	}
	if snap["h_count"] != 3 || snap["h_sum"] != 1024.5+1.0/1024 {
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
	h := r.Histogram("latency_seconds", "Latency.")
	h.Observe(0.0005)
	h.Observe(0.5)
	h.Observe(1000)
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
