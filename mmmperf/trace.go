package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, kept in memory until the run
// ends. Parent is the id of the enclosing span, 0 for a root.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_us"`
	End    float64 `json:"end_us"`
}

// maxSpans bounds the in-memory span log; later spans are counted as
// dropped, so a long warm-regen run cannot grow it without limit.
const maxSpans = 200_000

// tracer records spans around the benchmark's calls into the layers.
// A nil tracer records nothing, which is how untraced runs call the
// same code.
type tracer struct {
	mu      sync.Mutex
	origin  time.Time
	spans   []span
	dropped int
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) since() float64 {
	return float64(time.Since(t.origin).Nanoseconds()) / 1e3
}

// begin opens a span under parent and returns its id (0 when nothing
// is recorded).
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	start := t.since()
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		t.dropped++
		return 0
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: start})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	end := t.since()
	t.mu.Lock()
	t.spans[id-1].End = end
	t.mu.Unlock()
}

// timed runs fn inside a span and returns its wall time.
func (t *tracer) timed(name string, parent int, fn func()) time.Duration {
	id := t.begin(name, parent)
	start := time.Now()
	fn()
	d := time.Since(start)
	t.end(id)
	return d
}

// cpuTimed runs fn inside a span and returns the process CPU time used
// meanwhile, which is fn's own when nothing else runs.
func (t *tracer) cpuTimed(name string, parent int, fn func()) time.Duration {
	id := t.begin(name, parent)
	start := cpuTime()
	fn()
	d := cpuTime() - start
	t.end(id)
	return d
}

// writeFile writes the span log as JSON, with each span name's total
// and self time (duration minus the part its children cover).
func (t *tracer) writeFile(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	type total struct {
		Name   string  `json:"name"`
		Count  int     `json:"count"`
		TotalU float64 `json:"total_us"`
		SelfU  float64 `json:"self_us"`
	}
	childUS := make(map[int]float64)
	for _, s := range t.spans {
		if s.Parent > 0 {
			childUS[s.Parent] += s.End - s.Start
		}
	}
	byName := make(map[string]*total)
	for _, s := range t.spans {
		tt := byName[s.Name]
		if tt == nil {
			tt = &total{Name: s.Name}
			byName[s.Name] = tt
		}
		tt.Count++
		tt.TotalU += s.End - s.Start
		tt.SelfU += s.End - s.Start - childUS[s.ID]
	}
	totals := make([]total, 0, len(byName))
	for _, tt := range byName {
		totals = append(totals, *tt)
	}
	sort.Slice(totals, func(i, j int) bool { return totals[i].Name < totals[j].Name })
	data, err := json.Marshal(struct {
		Dropped int     `json:"dropped"`
		Totals  []total `json:"totals"`
		Spans   []span  `json:"spans"`
	}{t.dropped, totals, t.spans})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// Profile folding. runtime/pprof writes a gzipped profile.proto; the
// benchmark takes no dependencies, so the few fields it needs are read
// with a minimal protobuf decoder.

// Field numbers of profile.proto.
const (
	pbProfileSample   = 2
	pbProfileLocation = 4
	pbProfileFunction = 5
	pbProfileStrings  = 6
	pbSampleLocation  = 1
	pbSampleValue     = 2
	pbLocationID      = 1
	pbLocationLine    = 4
	pbLineFunction    = 1
	pbFunctionID      = 1
	pbFunctionName    = 2
)

// pbWalk calls fn for every field of one protobuf message. For varint
// fields v holds the value; for length-delimited fields data holds the
// bytes. Fixed-width fields are skipped.
func pbWalk(msg []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return fmt.Errorf("profile: bad field key")
		}
		msg = msg[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(msg)
			if n <= 0 {
				return fmt.Errorf("profile: bad varint")
			}
			msg = msg[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1, 5:
			size := 8
			if wire == 5 {
				size = 4
			}
			if len(msg) < size {
				return fmt.Errorf("profile: truncated fixed field")
			}
			msg = msg[size:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return fmt.Errorf("profile: truncated field")
			}
			if err := fn(num, 0, msg[n:n+int(l)]); err != nil {
				return err
			}
			msg = msg[n+int(l):]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
	}
	return nil
}

// pbInts collects a repeated integer field, packed or not.
func pbInts(dst []uint64, v uint64, data []byte) ([]uint64, error) {
	if data == nil {
		return append(dst, v), nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return nil, fmt.Errorf("profile: bad packed varint")
		}
		dst = append(dst, x)
		data = data[n:]
	}
	return dst, nil
}

// selfByFunction decodes a (possibly gzipped) CPU profile and returns
// each leaf function's self value — the last sample type, CPU
// nanoseconds for runtime/pprof — and the profile's total. A sample's
// leaf is the innermost inlined function of its first location.
func selfByFunction(profile []byte) (map[string]int64, int64, error) {
	if bytes.HasPrefix(profile, []byte{0x1f, 0x8b}) {
		zr, err := gzip.NewReader(bytes.NewReader(profile))
		if err != nil {
			return nil, 0, err
		}
		if profile, err = io.ReadAll(zr); err != nil {
			return nil, 0, err
		}
	}
	type sample struct {
		leaf  uint64
		value int64
	}
	var (
		samples  []sample
		strs     []string
		leafFunc = make(map[uint64]uint64) // location id -> innermost function id
		funcName = make(map[uint64]uint64) // function id -> string index
	)
	err := pbWalk(profile, func(num int, _ uint64, data []byte) error {
		switch num {
		case pbProfileSample:
			var locs, vals []uint64
			err := pbWalk(data, func(num int, v uint64, data []byte) error {
				var err error
				switch num {
				case pbSampleLocation:
					locs, err = pbInts(locs, v, data)
				case pbSampleValue:
					vals, err = pbInts(vals, v, data)
				}
				return err
			})
			if err != nil {
				return err
			}
			if len(locs) > 0 && len(vals) > 0 {
				samples = append(samples, sample{leaf: locs[0], value: int64(vals[len(vals)-1])})
			}
		case pbProfileLocation:
			var id, fn uint64
			seenLine := false
			err := pbWalk(data, func(num int, v uint64, data []byte) error {
				switch num {
				case pbLocationID:
					id = v
				case pbLocationLine:
					if seenLine {
						return nil
					}
					seenLine = true
					return pbWalk(data, func(num int, v uint64, _ []byte) error {
						if num == pbLineFunction {
							fn = v
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			leafFunc[id] = fn
		case pbProfileFunction:
			var id, name uint64
			err := pbWalk(data, func(num int, v uint64, _ []byte) error {
				switch num {
				case pbFunctionID:
					id = v
				case pbFunctionName:
					name = v
				}
				return nil
			})
			if err != nil {
				return err
			}
			funcName[id] = name
		case pbProfileStrings:
			strs = append(strs, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	self := make(map[string]int64)
	var total int64
	for _, s := range samples {
		name := "?"
		if idx, ok := funcName[leafFunc[s.leaf]]; ok && idx < uint64(len(strs)) {
			name = strs[idx]
		}
		self[name] += s.value
		total += s.value
	}
	return self, total, nil
}

// gcFuncs are the runtime function-name prefixes counted as garbage
// collection or allocation.
var gcFuncs = []string{
	"gc", "mallocgc", "malloc", "newobject", "newarray", "makeslice", "growslice",
	"scan", "greyobject", "markBits", "markroot", "sweep", "bgsweep", "bgscavenge",
	"heapBits", "findObject", "nextFreeFast", "memclrNoHeapPointers", "wbBuf",
	"typePointers", "spanOf", "(*gc", "(*mspan)", "(*mheap)", "(*mcache)",
	"(*mcentral)", "(*sweep", "(*pageAlloc)", "(*scavenger",
}

// layerOf names the layer a function belongs to: the package name for
// repro/internal/<pkg> functions, "gc" for the collector and allocator,
// "json" for encoding/json and "syscall" for system calls (the cache
// and journal formats and their file I/O), "" otherwise.
func layerOf(fn string) string {
	if rest, ok := strings.CutPrefix(fn, "repro/internal/"); ok {
		if i := strings.IndexAny(rest, "./"); i >= 0 {
			return rest[:i]
		}
		return rest
	}
	switch {
	case strings.HasPrefix(fn, "encoding/json."):
		return "json"
	case strings.HasPrefix(fn, "syscall."), strings.HasPrefix(fn, "internal/runtime/syscall."):
		return "syscall"
	}
	if rest, ok := strings.CutPrefix(fn, "runtime."); ok {
		for _, p := range gcFuncs {
			if strings.HasPrefix(rest, p) {
				return "gc"
			}
		}
	}
	return ""
}

// foldByLayer sums self values per layer and returns each as a share
// of total.
func foldByLayer(self map[string]int64, total int64) map[string]float64 {
	sums := make(map[string]int64)
	for fn, v := range self {
		if l := layerOf(fn); l != "" {
			sums[l] += v
		}
	}
	out := make(map[string]float64, len(sums))
	for l, v := range sums {
		out[l] = ratio(float64(v), float64(total))
	}
	return out
}
