package api

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/stats"
)

// sameEncoding checks the AppendJSON contract on ev: the bytes
// json.Marshal writes, appended after a prefix that stays intact, or
// the error json.Marshal returns with dst handed back as passed.
func sameEncoding(t testing.TB, ev *Event) (failed bool) {
	t.Helper()
	want, wantErr := json.Marshal(ev)
	prefix := []byte("data: ")
	got, err := ev.AppendJSON(prefix)
	switch {
	case wantErr != nil || err != nil:
		if wantErr == nil || err == nil || err.Error() != wantErr.Error() {
			t.Fatalf("errors differ: AppendJSON %v, json.Marshal %v\nevent: %#v", err, wantErr, ev)
		}
		if len(got) != len(prefix) {
			t.Fatalf("AppendJSON failed but returned %d bytes, want the %d passed", len(got), len(prefix))
		}
		return true
	case !bytes.Equal(got[:len(prefix)], prefix):
		t.Fatalf("AppendJSON overwrote its prefix: %q", got[:len(prefix)])
	case !bytes.Equal(got[len(prefix):], want):
		t.Fatalf("AppendJSON differs from json.Marshal\ngot:  %s\nwant: %s", got[len(prefix):], want)
	}
	return false
}

// TestAppendJSONMatchesMarshal is the differential test: on random
// events AppendJSON writes the bytes json.Marshal writes, or fails with
// its error. The generator fills fields by reflection, so a field added
// to Event or to anything it carries is drawn without a test edit, and
// the test fails until the encoder writes it.
func TestAppendJSONMatchesMarshal(t *testing.T) {
	g := newEventGen(rand.New(rand.NewSource(1)))
	const n = 20_000
	fails := 0
	for i := 0; i < n; i++ {
		var ev Event
		g.fill(reflect.ValueOf(&ev).Elem())
		if sameEncoding(t, &ev) {
			fails++
		}
	}
	for field := range g.fields {
		if !g.nonZero[field] {
			t.Errorf("field %s was never drawn non-zero", field)
		}
	}
	// Enough draws must succeed for the byte comparison to mean
	// something, and enough fail for the error path to be exercised.
	if fails < n/200 || fails > n/5 {
		t.Errorf("%d of %d events failed to encode, want between %d and %d", fails, n, n/200, n/5)
	}
	t.Logf("%d events, %d failed in both encoders, %d fields covered", n, fails, len(g.fields))
}

// FuzzEventJSON: any input json.Unmarshal decodes into an Event either
// fails in both encoders or encodes to identical bytes.
func FuzzEventJSON(f *testing.F) {
	seeds := []Event{
		{Seq: 1, Time: time.Date(2026, 10, 19, 15, 35, 33, 123456789, time.UTC), Type: EventExpanded,
			Run: "c1", Cell: -1, Total: 54, Scale: &Scale{Warmup: 150_000, Measure: 300_000, Timeslice: 60_000},
			Precision: &Precision{Metric: "coverage", HalfWidth: 0.05, WaveTrials: 12, MinTrials: 24, MaxTrials: 396}},
		{Seq: 9, Type: EventMerged, Cell: 3, Key: "apache/MMM-IPC/mixed-r25000/pol=fault-escalation",
			Worker: "w1", WallMS: 812, Hit: true, Fp: "d8b36b63",
			Job: &Job{Workload: "apache", Kind: core.KindMMMIPC, Seed: 11, Variant: "mixed-r25000",
				Knobs: Knobs{FaultInterval: 25_000, ReliaTrials: 12, Policy: "fault-escalation", Wave: 2, TrialOffset: 12}},
			Metrics: &core.Metrics{Kind: core.KindMMMIPC, Workload: "apache", Cycles: 300_000,
				GuestUser: map[string]uint64{"perf": 7, "rel": 3}, GuestVCPUs: map[string]int{"perf": 4},
				Core: stats.CoreCounters{Cycles: 1e6, Commits: 4e5}, Cache: stats.CacheCounters{L1Hits: 9},
				EnterAvg: 1234.5, CtxAvg: 1e-7,
				Relia: &core.ReliaBatch{Trials: 12, Injected: map[string]uint64{"result-flip": 4},
					Outcomes:  map[string]uint64{"result-flip/detected": 3, "result-flip/masked": 1},
					DetectLat: map[string][]float64{"result-flip": {12, 40.5}, "tlb-flip": nil},
					Recovery:  map[string]float64{"detected": 3e21}, LogDigest: "ab12"}},
			Wave: 2},
	}
	for i := range seeds {
		data, err := json.Marshal(&seeds[i])
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	// Written by hand: json.Marshal would already have replaced the
	// invalid UTF-8 that the decoder has to turn into U+FFFD.
	f.Add([]byte("{\"seq\":3,\"type\":\"failed\",\"cell\":2,\"error\":\"<&>\\\" \\u0001 \xff\xfe\"}"))
	f.Fuzz(func(t *testing.T, data []byte) {
		var ev Event
		if json.Unmarshal(data, &ev) != nil {
			return
		}
		sameEncoding(t, &ev)
	})
}

// BenchmarkAppendJSON compares the encoders on a merged event of a
// performance cell, the journal's commonest large record.
func BenchmarkAppendJSON(b *testing.B) {
	m := core.Metrics{Kind: core.KindMMMIPC, Workload: "apache", Cycles: 300_000,
		GuestUser:  map[string]uint64{"perf": 812_345, "rel": 401_234},
		GuestOS:    map[string]uint64{"perf": 212_345, "rel": 101_234},
		GuestVCPUs: map[string]int{"perf": 4, "rel": 4},
		EnterN:     12, LeaveN: 12, EnterAvg: 1234.5678, LeaveAvg: 987.125, CtxN: 40, CtxAvg: 4321.0625,
		Checks: 123_456, PABChecks: 23_456, UserCycPerSwitch: 60_000.5, OSCycPerSwitch: 1e-7}
	for _, v := range []reflect.Value{reflect.ValueOf(&m.Core).Elem(), reflect.ValueOf(&m.Cache).Elem()} {
		for i := 0; i < v.NumField(); i++ {
			v.Field(i).SetUint(uint64(1_000_003 * (i + 1)))
		}
	}
	ev := Event{Seq: 54, Time: time.Date(2026, 10, 19, 15, 35, 33, 123456789, time.UTC), Type: EventMerged,
		Cell: 7, Key: "apache/MMM-IPC", Worker: "local", Hit: true,
		Fp:  "d8b36b63a5db7cf97335ff11902c212bc997b5ec4f1e4d9224a36d97c6f6963b",
		Job: &Job{Workload: "apache", Kind: core.KindMMMIPC, Seed: 11}, Metrics: &m}
	b.Run("AppendJSON", func(b *testing.B) {
		b.ReportAllocs()
		var buf []byte
		for i := 0; i < b.N; i++ {
			buf, _ = ev.AppendJSON(buf[:0])
		}
	})
	b.Run("Marshal", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_, _ = json.Marshal(&ev)
		}
	})
}

var (
	timeType = reflect.TypeOf(time.Time{})
	kindType = reflect.TypeOf(core.Kind(0))
)

// eventGen draws random values into any of the types an Event carries.
// It records every exported struct field it meets and which were drawn
// non-zero, so a test can check the draws cover every field.
type eventGen struct {
	r        *rand.Rand
	zeroOdds int // a field stays zero one time in zeroOdds
	fields   map[string]bool
	nonZero  map[string]bool
}

func newEventGen(r *rand.Rand) *eventGen {
	return &eventGen{r: r, zeroOdds: 3, fields: map[string]bool{}, nonZero: map[string]bool{}}
}

func (g *eventGen) fill(v reflect.Value) {
	switch v.Type() {
	case timeType:
		v.Set(reflect.ValueOf(g.time()))
		return
	case kindType:
		k := core.AllKinds()[g.r.Intn(len(core.AllKinds()))]
		if g.r.Intn(3000) == 0 {
			k = core.Kind(len(core.AllKinds()) + g.r.Intn(5))
		}
		v.SetInt(int64(k))
		return
	}
	switch v.Kind() {
	case reflect.Struct:
		typ := v.Type()
		for i := 0; i < typ.NumField(); i++ {
			if !typ.Field(i).IsExported() {
				continue
			}
			name := typ.String() + "." + typ.Field(i).Name
			g.fields[name] = true
			if g.r.Intn(g.zeroOdds) == 0 {
				continue
			}
			g.fill(v.Field(i))
			if !v.Field(i).IsZero() {
				g.nonZero[name] = true
			}
		}
	case reflect.Pointer:
		p := reflect.New(v.Type().Elem())
		g.fill(p.Elem())
		v.Set(p)
	case reflect.Map:
		if g.r.Intn(6) == 0 {
			return // nil
		}
		m := reflect.MakeMap(v.Type())
		for n := g.r.Intn(5); n > 0; n-- {
			k := reflect.New(v.Type().Key()).Elem()
			g.fill(k)
			e := reflect.New(v.Type().Elem()).Elem()
			if g.r.Intn(6) > 0 {
				g.fill(e)
			}
			m.SetMapIndex(k, e)
		}
		v.Set(m)
	case reflect.Slice:
		if g.r.Intn(6) == 0 {
			return // nil
		}
		s := reflect.MakeSlice(v.Type(), g.r.Intn(4), 4)
		for i := 0; i < s.Len(); i++ {
			g.fill(s.Index(i))
		}
		v.Set(s)
	case reflect.String:
		v.SetString(g.string())
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int64:
		v.SetInt(int64(g.r.Uint64()) >> g.r.Intn(64))
	case reflect.Uint64:
		v.SetUint(g.r.Uint64() >> g.r.Intn(64))
	case reflect.Float64:
		v.SetFloat(g.float())
	default:
		panic("eventGen: no draw for " + v.Type().String())
	}
}

// stringPieces mixes plain names with every class of byte encoding/json
// escapes: the HTML characters, quotes, control bytes, invalid UTF-8
// and the JavaScript line separators.
var stringPieces = []string{"apache", "MMM-IPC/pol=duty-cycle:60000:25", "result-flip", "w1", "9f3a",
	"<", ">", "&", `"`, `\`, "\x00", "\x01", "\x1f", "\b", "\f", "\n", "\r", "\t", "\x7f",
	"\u2028", "\u2029", "\xff", "\xe2\x80", "\xed\xa0\x80", "é", "日本", "\U0001F600", " "}

func (g *eventGen) string() string {
	s := ""
	for n := g.r.Intn(4); n > 0; n-- {
		s += stringPieces[g.r.Intn(len(stringPieces))]
		if g.r.Intn(2) == 0 {
			s += stringPieces[g.r.Intn(5)] // mostly plain
		}
	}
	return s
}

// float draws across encoding/json's cutoffs (1e-6 and 1e21) and
// beyond, with NaN and infinities rare enough that most events encode.
func (g *eventGen) float() float64 {
	switch g.r.Intn(12) {
	case 0:
		return 0
	case 1:
		return float64(g.r.Intn(1 << 20))
	case 2:
		return []float64{1e-6, math.Nextafter(1e-6, 0), 1e21, math.Nextafter(1e21, 0),
			math.SmallestNonzeroFloat64, math.MaxFloat64}[g.r.Intn(6)]
	case 3:
		if g.r.Intn(200) == 0 {
			return []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[g.r.Intn(3)]
		}
	}
	f := g.r.Float64() * math.Pow(10, float64(g.r.Intn(61)-30))
	if g.r.Intn(4) == 0 {
		f = -f
	}
	return f
}

// time draws instants in and just outside years 0–9999, with zone
// offsets up to a day either way (RFC 3339 cannot write a day or more).
func (g *eventGen) time() time.Time {
	year := 2026
	if g.r.Intn(20) == 0 {
		year = []int{-1, 0, 1, 9999, 10000}[g.r.Intn(5)]
	}
	loc := time.UTC
	if g.r.Intn(3) == 0 {
		const day = 24 * 60 * 60
		off := g.r.Intn(2*day) - day
		switch g.r.Intn(4) {
		case 0:
			off = []int{-day - 1, -day, -day + 1, day - 1, day, day + 1}[g.r.Intn(6)]
		case 1:
			off -= off % 60
		}
		loc = time.FixedZone("", off)
	}
	ns := g.r.Intn(1e9)
	if g.r.Intn(2) == 0 {
		ns -= ns % 1000
	}
	return time.Date(year, time.Month(1+g.r.Intn(12)), 1+g.r.Intn(28), g.r.Intn(24), g.r.Intn(60), g.r.Intn(60), ns, loc)
}
