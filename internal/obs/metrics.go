// Package obs is the repository's telemetry layer: a dependency-free
// metrics registry (counters, histograms and scrape-time collectors
// with Prometheus text exposition) and a bounded flight recorder for
// structured simulation events (recorder.go). It sits below every
// other layer — obs imports only internal/sim — so the chip core, the
// campaign engine and the mmmd service can all feed it.
//
// The package's contract is zero cost when disabled: every instrument
// and the recorder are nil-safe (methods on a nil receiver return
// immediately), so instrumented code holds a possibly-nil pointer and
// pays one predictable branch, no allocation and no locking when
// telemetry is off. Telemetry is pure observation — nothing in this
// package consumes simulation RNG or feeds back into event order, so
// enabling it cannot change any simulation result.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing integer instrument. The zero
// value is ready to use; a nil *Counter discards all updates.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// DefBuckets are the default histogram bucket upper bounds, in seconds
// — tuned for job/request latencies from sub-millisecond cache hits to
// multi-minute simulations.
var DefBuckets = []float64{0.001, 0.005, 0.025, 0.1, 0.5, 1, 2.5, 5, 10, 30, 60, 120, 300}

// Histogram counts observations into fixed cumulative buckets. A nil
// *Histogram discards observations.
type Histogram struct {
	bounds  []float64 // sorted upper bounds; +Inf is implicit
	counts  []atomic.Uint64
	count   atomic.Uint64
	sumBits atomic.Uint64
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// sort.SearchFloat64s gives the first bound >= v under le semantics
	// (bucket bound is inclusive).
	i := sort.Search(len(h.bounds), func(i int) bool { return h.bounds[i] >= v })
	if i < len(h.counts) {
		h.counts[i].Add(1)
	}
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations (0 on nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values (0 on nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// Sample is one collector-produced series value: a metric name, its
// metadata, an alternating key/value label list and the value at
// scrape time. Collectors let the registry expose state that lives
// elsewhere (runs by status, per-worker heartbeat ages) without
// churning registered instruments.
type Sample struct {
	Name   string
	Help   string
	Type   string // "counter" or "gauge"
	Labels []string
	Value  float64
}

// CollectorFunc is called at scrape time; it emits zero or more
// samples.
type CollectorFunc func(emit func(Sample))

// family is one registered metric name with its metadata and series.
type series struct {
	labels  string // rendered {k="v",...} or ""
	counter *Counter
	hist    *Histogram
}

type family struct {
	name, help, typ string
	series          map[string]*series
}

// Registry holds named instruments and scrape-time collectors and
// renders them as Prometheus text exposition. A nil *Registry hands
// out nil instruments, so a component wired to an optional registry
// needs no further guards.
type Registry struct {
	mu         sync.Mutex
	families   map[string]*family
	collectors []CollectorFunc
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// labelString renders an alternating key/value list canonically
// (sorted by key, values escaped). Panics on an odd-length list —
// that is a programming error at the instrument's registration site.
func labelString(labels []string) string {
	if len(labels) == 0 {
		return ""
	}
	if len(labels)%2 != 0 {
		panic(fmt.Sprintf("obs: odd label list %q", labels))
	}
	type kv struct{ k, v string }
	kvs := make([]kv, 0, len(labels)/2)
	for i := 0; i < len(labels); i += 2 {
		kvs = append(kvs, kv{labels[i], labels[i+1]})
	}
	sort.Slice(kvs, func(i, j int) bool { return kvs[i].k < kvs[j].k })
	var b strings.Builder
	b.WriteByte('{')
	for i, p := range kvs {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", p.k, escapeLabel(p.v))
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabel escapes a label value per the exposition format. %q
// above already escapes '"' and '\'; newlines become \n via %q too,
// so this only needs to pass the value through.
func escapeLabel(v string) string { return v }

// lookup returns (creating if needed) the family and series for one
// instrument registration. Registration is idempotent: the same
// (name, labels) returns the same instrument.
func (r *Registry) lookup(name, help, typ string, labels []string) *series {
	f := r.families[name]
	if f == nil {
		f = &family{name: name, help: help, typ: typ, series: make(map[string]*series)}
		r.families[name] = f
	} else if f.typ != typ {
		panic(fmt.Sprintf("obs: metric %s registered as %s and %s", name, f.typ, typ))
	}
	ls := labelString(labels)
	s := f.series[ls]
	if s == nil {
		s = &series{labels: ls}
		f.series[ls] = s
	}
	return s
}

// Counter registers (or finds) a counter. labels alternate key, value.
// Returns nil on a nil registry.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.lookup(name, help, "counter", labels)
	if s.counter == nil {
		s.counter = &Counter{}
	}
	return s.counter
}

// Histogram registers (or finds) a histogram with the given bucket
// upper bounds (nil uses DefBuckets).
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...string) *Histogram {
	if r == nil {
		return nil
	}
	if len(buckets) == 0 {
		buckets = DefBuckets
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.lookup(name, help, "histogram", labels)
	if s.hist == nil {
		bounds := append([]float64(nil), buckets...)
		sort.Float64s(bounds)
		s.hist = &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds))}
	}
	return s.hist
}

// RegisterCollector adds a scrape-time sample source.
func (r *Registry) RegisterCollector(fn CollectorFunc) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.collectors = append(r.collectors, fn)
}

// fmtValue renders a sample value the way Prometheus expects.
func fmtValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	default:
		return strconv.FormatFloat(v, 'g', -1, 64)
	}
}

// WritePrometheus renders the registry — static instruments plus every
// collector's scrape-time samples — as version 0.0.4 text exposition,
// families and series in sorted order so the output is deterministic.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	type line struct{ labels, text string }
	type fam struct {
		help, typ string
		lines     []line
	}
	fams := make(map[string]*fam)

	r.mu.Lock()
	collectors := append([]CollectorFunc(nil), r.collectors...)
	for name, f := range r.families {
		out := &fam{help: f.help, typ: f.typ}
		for ls, s := range f.series {
			switch {
			case s.counter != nil:
				out.lines = append(out.lines, line{ls,
					fmt.Sprintf("%s%s %d", name, ls, s.counter.Value())})
			case s.hist != nil:
				h := s.hist
				var cum uint64
				for i, b := range h.bounds {
					cum += h.counts[i].Load()
					out.lines = append(out.lines, line{ls + "\x00" + fmt.Sprintf("%04d", i),
						fmt.Sprintf("%s_bucket%s %d", name, mergeLabels(ls, "le", fmtValue(b)), cum)})
				}
				out.lines = append(out.lines, line{ls + "\x00zinf",
					fmt.Sprintf("%s_bucket%s %d", name, mergeLabels(ls, "le", "+Inf"), h.Count())})
				out.lines = append(out.lines, line{ls + "\x00zsum",
					fmt.Sprintf("%s_sum%s %s", name, ls, fmtValue(h.Sum()))})
				out.lines = append(out.lines, line{ls + "\x00zzcount",
					fmt.Sprintf("%s_count%s %d", name, ls, h.Count())})
			}
		}
		fams[name] = out
	}
	r.mu.Unlock()

	// Collector samples merge into (or create) families. Static
	// metadata wins on a name collision.
	for _, fn := range collectors {
		fn(func(s Sample) {
			f := fams[s.Name]
			if f == nil {
				typ := s.Type
				if typ == "" {
					typ = "gauge"
				}
				f = &fam{help: s.Help, typ: typ}
				fams[s.Name] = f
			}
			ls := labelString(s.Labels)
			f.lines = append(f.lines, line{ls,
				fmt.Sprintf("%s%s %s", s.Name, ls, fmtValue(s.Value))})
		})
	}

	names := make([]string, 0, len(fams))
	for n := range fams {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		f := fams[n]
		if len(f.lines) == 0 {
			continue
		}
		if f.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", n, strings.ReplaceAll(f.help, "\n", " ")); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", n, f.typ); err != nil {
			return err
		}
		sort.Slice(f.lines, func(i, j int) bool { return f.lines[i].labels < f.lines[j].labels })
		for _, l := range f.lines {
			if _, err := fmt.Fprintln(w, l.text); err != nil {
				return err
			}
		}
	}
	return nil
}

// mergeLabels splices one extra label into an already-rendered label
// string (used for histogram le labels).
func mergeLabels(ls, key, value string) string {
	extra := fmt.Sprintf("%s=%q", key, value)
	if ls == "" {
		return "{" + extra + "}"
	}
	return strings.TrimSuffix(ls, "}") + "," + extra + "}"
}

// Snapshot returns every static series as "name{labels}" -> value
// (histograms contribute _count and _sum). Collector samples are
// included. Intended for tests and JSON status endpoints.
func (r *Registry) Snapshot() map[string]float64 {
	if r == nil {
		return nil
	}
	out := make(map[string]float64)
	r.mu.Lock()
	collectors := append([]CollectorFunc(nil), r.collectors...)
	for name, f := range r.families {
		for ls, s := range f.series {
			switch {
			case s.counter != nil:
				out[name+ls] = float64(s.counter.Value())
			case s.hist != nil:
				out[name+"_count"+ls] = float64(s.hist.Count())
				out[name+"_sum"+ls] = s.hist.Sum()
			}
		}
	}
	r.mu.Unlock()
	for _, fn := range collectors {
		fn(func(s Sample) {
			out[s.Name+labelString(s.Labels)] = s.Value
		})
	}
	return out
}
