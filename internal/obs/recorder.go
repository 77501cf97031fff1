package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"repro/internal/sim"
)

// Kind classifies one flight-recorder event. Kinds are stable strings
// so JSONL output is self-describing.
type Kind string

const (
	// KindEnterDMR / KindLeaveDMR / KindCtxSwitch are completed mode
	// transitions (span events: Cycle..Cycle+Dur, Arg = drain latency
	// in cycles, Cause = what triggered the switch).
	KindEnterDMR  Kind = "enter-dmr"
	KindLeaveDMR  Kind = "leave-dmr"
	KindCtxSwitch Kind = "ctx-switch"
	// KindDecision is one per-pair policy decision outcome; Cause is
	// "<event>/taken", "<event>/dropped" (pair mid-transition) or
	// "<event>/retried" (a previously dropped decision finally landing),
	// Arg the assigned roster group.
	KindDecision Kind = "decision"
	// KindOverride marks a coupling override riding on a taken
	// decision; Cause is "couple" or "decouple".
	KindOverride Kind = "override"
	// KindFault is one protection-mechanism observation (mismatch,
	// machine check, PAB exception, ...); Cause names the
	// core.FaultEventKind, Arg the victim VCPU (-1 when n/a).
	KindFault Kind = "fault"
	// KindInjection is one fault-injector attempt; Cause is the fault
	// kind name ("/miss" appended when no viable target), Arg the
	// 1-based attempt sequence number.
	KindInjection Kind = "injection"
	// KindBulkStep is one event-horizon bulk segment of the Run loop
	// (span; Arg = cores with an instruction source, 0 for a whole-chip
	// idle span).
	KindBulkStep Kind = "bulk-step"
	// KindMark is a free-form annotation (e.g. relia trial boundaries).
	KindMark Kind = "mark"
)

// Event is one recorded observation, timestamped in simulation cycles.
// Pair and Core are -1 when not applicable.
type Event struct {
	Kind  Kind      `json:"kind"`
	Cycle sim.Cycle `json:"cycle"`
	Dur   sim.Cycle `json:"dur,omitempty"`
	Pair  int       `json:"pair"`
	Core  int       `json:"core"`
	Cause string    `json:"cause,omitempty"`
	Arg   int64     `json:"arg,omitempty"`
}

// DefaultRecorderCap bounds the flight recorder when the caller does
// not: 1<<16 events is a few MB and covers hundreds of timeslices of a
// busy chip.
const DefaultRecorderCap = 1 << 16

// Recorder is a bounded structured event tracer: a ring buffer that
// keeps the most recent events (flight-recorder semantics — when the
// buffer wraps, the oldest events fall off and Dropped counts them).
// It is not safe for concurrent use; a chip owns its recorder on the
// simulation goroutine. A nil *Recorder discards everything, which is
// the telemetry-disabled fast path.
type Recorder struct {
	cap   int
	buf   []Event
	head  int // next write position once the ring is full
	total uint64
}

// NewRecorder returns a recorder keeping up to capacity events
// (DefaultRecorderCap when capacity <= 0).
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultRecorderCap
	}
	return &Recorder{cap: capacity}
}

// Emit records one event; on a full ring the oldest event is
// overwritten.
func (r *Recorder) Emit(ev Event) {
	if r == nil {
		return
	}
	r.total++
	if len(r.buf) < r.cap {
		r.buf = append(r.buf, ev)
		return
	}
	r.buf[r.head] = ev
	r.head++
	if r.head == r.cap {
		r.head = 0
	}
}

// Total returns how many events were emitted (including dropped ones).
func (r *Recorder) Total() uint64 {
	if r == nil {
		return 0
	}
	return r.total
}

// Dropped returns how many events fell off the ring.
func (r *Recorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	return r.total - uint64(len(r.buf))
}

// Events returns the retained events in emission order. The slice is
// freshly allocated; mutating it does not affect the recorder.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	out := make([]Event, 0, len(r.buf))
	out = append(out, r.buf[r.head:]...)
	out = append(out, r.buf[:r.head]...)
	return out
}

// Reset empties the ring and zeroes the counters.
func (r *Recorder) Reset() {
	if r == nil {
		return
	}
	r.buf = r.buf[:0]
	r.head = 0
	r.total = 0
}

// WriteJSONL writes the retained events as JSON Lines, one event per
// line, in emission order.
func (r *Recorder) WriteJSONL(w io.Writer) error {
	if r == nil {
		return nil
	}
	enc := json.NewEncoder(w)
	for _, ev := range r.Events() {
		if err := enc.Encode(&ev); err != nil {
			return err
		}
	}
	return nil
}

// chromeEvent is one Chrome trace-event JSON record (the subset
// perfetto and chrome://tracing load).
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Cat  string         `json:"cat,omitempty"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// Track layout of the Chrome trace: one process per recorder, the run
// loop on tid 0 and each core pair on its own thread track.
const (
	chromePid     = 1
	tidRunLoop    = 0
	tidPairBase   = 1 // pair p renders on tid tidPairBase+p
	catTransition = "transition"
	catPolicy     = "policy"
	catFault      = "fault"
	catRun        = "run"
)

// chromeTid maps an event onto its track: its pair's thread when one
// is identifiable (directly or via the core), else the run loop.
func chromeTid(ev Event) int {
	switch {
	case ev.Pair >= 0:
		return tidPairBase + ev.Pair
	case ev.Core >= 0:
		return tidPairBase + ev.Core/2
	default:
		return tidRunLoop
	}
}

// WriteChromeTrace writes the retained events as Chrome trace-event
// JSON, loadable in perfetto (ui.perfetto.dev) and chrome://tracing.
// One simulation cycle renders as one microsecond; process names the
// trace (e.g. the run's "system/policy/workload" label).
func (r *Recorder) WriteChromeTrace(w io.Writer, process string) error {
	if r == nil {
		return nil
	}
	events := r.Events()
	out := make([]chromeEvent, 0, len(events)+16)

	meta := func(name string, tid int, arg string) {
		out = append(out, chromeEvent{
			Name: name, Ph: "M", Pid: chromePid, Tid: tid,
			Args: map[string]any{"name": arg},
		})
	}
	meta("process_name", tidRunLoop, process)
	meta("thread_name", tidRunLoop, "run-loop")
	seenPairs := map[int]bool{}

	for _, ev := range events {
		tid := chromeTid(ev)
		if tid != tidRunLoop && !seenPairs[tid] {
			seenPairs[tid] = true
			meta("thread_name", tid, fmt.Sprintf("pair %d", tid-tidPairBase))
		}
		ce := chromeEvent{
			Name: string(ev.Kind),
			Ts:   float64(ev.Cycle),
			Pid:  chromePid,
			Tid:  tid,
		}
		args := map[string]any{}
		if ev.Cause != "" {
			args["cause"] = ev.Cause
		}
		switch ev.Kind {
		case KindEnterDMR, KindLeaveDMR, KindCtxSwitch:
			ce.Ph, ce.Cat = "X", catTransition
			ce.Dur = float64(ev.Dur)
			args["drain_cycles"] = ev.Arg
		case KindBulkStep:
			ce.Ph, ce.Cat = "X", catRun
			ce.Dur = float64(ev.Dur)
			args["active_cores"] = ev.Arg
		case KindDecision, KindOverride:
			ce.Ph, ce.Cat, ce.S = "i", catPolicy, "t"
			if ev.Kind == KindDecision {
				args["group"] = ev.Arg
			}
		case KindFault, KindInjection:
			ce.Ph, ce.Cat, ce.S = "i", catFault, "t"
			args["arg"] = ev.Arg
			if ev.Core >= 0 {
				args["core"] = ev.Core
			}
		default:
			ce.Ph, ce.S = "i", "g"
			args["arg"] = ev.Arg
		}
		if len(args) > 0 {
			ce.Args = args
		}
		out = append(out, ce)
	}

	doc := struct {
		TraceEvents     []chromeEvent `json:"traceEvents"`
		DisplayTimeUnit string        `json:"displayTimeUnit"`
	}{TraceEvents: out, DisplayTimeUnit: "ms"}
	enc := json.NewEncoder(w)
	return enc.Encode(&doc)
}

// WriteFiles writes the retained events to files: Chrome trace-event
// JSON under the process name to chrome, JSON Lines to jsonl. An empty
// path is skipped.
func (r *Recorder) WriteFiles(chrome, jsonl, process string) error {
	if r == nil {
		return nil
	}
	if err := writeFile(chrome, func(w io.Writer) error { return r.WriteChromeTrace(w, process) }); err != nil {
		return err
	}
	return writeFile(jsonl, r.WriteJSONL)
}

// writeFile creates path and fills it with write, unless path is empty.
func writeFile(path string, write func(io.Writer) error) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
