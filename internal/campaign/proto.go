package campaign

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"

	"repro/internal/api"
	"repro/internal/sim"
)

// The distributed campaign protocol. A coordinator (Dispatcher) runs a
// campaign's board with one pool goroutine per capacity slot of each
// worker. Each goroutine takes a lease and *pushes* its job to its
// worker as one request, whose response streams a keepalive newline
// every third of the lease TTL while the job waits for a slot or
// simulates, then one result line: the canonical metrics payload plus
// the job's cache key, or an error. The coordinator owns all campaign
// state and opens every connection; a worker is stateless between jobs
// and never dials anyone, so losing one costs at most its in-flight
// leases, which the coordinator reassigns.
//
// Worker endpoints (mmmd -worker adds GET /metrics):
//
//	GET  /v1/worker -> api.WorkerInfo (name, capacity, check token)
//	POST /v1/run    -> 200, keepalive newlines, one api.RunResult line
//	                 | 400, 413 (bad body) | 409 (incompatible build)
//	                 | 503 (worker stopped)
//	GET  /healthz
//
// protoVersion gates the wire format; protocolCheck() additionally
// folds in the simulator's SpecVersion and RNG stream digest so two
// *compatible wire formats* around *incompatible simulators* still
// refuse to mix — a silent mix would break the byte-identical
// determinism guarantee of sharded campaigns.
//
// v2: the wire bodies are the typed internal/api structs and wave jobs
// (Knobs.Wave/TrialOffset) exist on the wire. v3: the coordinator
// pushes jobs (GET /v1/worker, POST /v1/run); the attach endpoint and
// the coordinator's per-campaign lease board are gone, so a v2 peer
// cannot take part.
const protoVersion = 3

// protocolCheck is the compatibility token a worker reports and every
// run request carries.
func protocolCheck() string {
	return fmt.Sprintf("p%d.s%d.%s", protoVersion, api.SpecVersion, sim.StreamCheck())
}

// explainCheckMismatch names WHICH component of two protocolCheck
// tokens disagrees — the wire protoVersion, the campaign SpecVersion,
// or the RNG stream digest — so a refusal says what to
// upgrade instead of dumping two opaque tokens. Unparseable tokens
// (e.g. from a build predating the format) fall back to quoting both.
func explainCheckMismatch(ours, theirs string) string {
	op, os, od, ok1 := splitCheck(ours)
	tp, ts, td, ok2 := splitCheck(theirs)
	if !ok1 || !ok2 {
		return fmt.Sprintf("unrecognized check format: ours %q, theirs %q", ours, theirs)
	}
	switch {
	case op != tp:
		return fmt.Sprintf("wire protocol version mismatch: ours %s, theirs %s (checks %q vs %q)", op, tp, ours, theirs)
	case os != ts:
		return fmt.Sprintf("campaign SpecVersion mismatch: ours %s, theirs %s (checks %q vs %q)", os, ts, ours, theirs)
	case od != td:
		return fmt.Sprintf("RNG stream digest mismatch: ours %s, theirs %s — simulator builds differ", od, td)
	default:
		return fmt.Sprintf("checks match (%q); refusal is spurious", ours)
	}
}

// splitCheck parses "p<proto>.s<spec>.<digest>".
func splitCheck(c string) (proto, spec, digest string, ok bool) {
	parts := strings.SplitN(c, ".", 3)
	if len(parts) != 3 || !strings.HasPrefix(parts[0], "p") || !strings.HasPrefix(parts[1], "s") {
		return "", "", "", false
	}
	return parts[0][1:], parts[1][1:], parts[2], true
}

// NormalizeWorkerURL turns a -workers flag element (host:port or a
// full URL) into a worker base URL.
func NormalizeWorkerURL(s string) string {
	s = strings.TrimRight(strings.TrimSpace(s), "/")
	if s == "" {
		return ""
	}
	if strings.HasPrefix(s, "http://") || strings.HasPrefix(s, "https://") {
		return s
	}
	return "http://" + s
}

// ParseWorkerList splits a comma-separated -workers flag into worker
// base URLs, dropping empty elements.
func ParseWorkerList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if u := NormalizeWorkerURL(part); u != "" {
			out = append(out, u)
		}
	}
	return out
}

// writeJSONTo and httpErrorJSON are the worker's JSON helpers
// (cmd/mmmd has its own; these keep internal/campaign self-contained).
func writeJSONTo(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func httpErrorJSON(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSONTo(w, code, api.ErrorResponse{Error: fmt.Sprintf(format, args...)})
}

// Fleet bodies are bounded, so a peer cannot make a worker or the
// coordinator decode an arbitrarily large one. A run request is a few
// hundred bytes.
const maxControlBody = 16 << 10

// maxCompletionBody caps one line of a run response, the one fleet
// body that carries a job's Metrics. A result line is the encoded
// Metrics plus about 100 bytes. Measured on apache at seed 1, the
// largest Metrics of every registered campaign at quick scale was 1,559
// bytes, of the full-scale reliability campaign 1,680 bytes, and of a
// quick reliability campaign at 384 trials per cell (the nightly
// fixed-batch run) 2,551 bytes: a reliability batch grows by its
// detection latencies, about 5 bytes per detected fault. 1 MiB is over
// 300 times the largest.
const maxCompletionBody = 1 << 20

// decodeBody decodes req's JSON body into v, reading at most limit
// bytes. A longer body answers 413 and any other decode error 400, both
// naming what the body was; decodeBody reports whether v holds the
// request.
func decodeBody(w http.ResponseWriter, req *http.Request, limit int64, what string, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, req.Body, limit)).Decode(v)
	if err == nil {
		return true
	}
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		httpErrorJSON(w, http.StatusRequestEntityTooLarge, "%s body over %d bytes", what, limit)
		return false
	}
	httpErrorJSON(w, http.StatusBadRequest, "bad %s: %v", what, err)
	return false
}
