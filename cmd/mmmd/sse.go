// Server-Sent Events streaming of campaign run journals:
// GET /campaigns/{id}/events replays the journal history and then
// follows the live stream until the run reaches a terminal state.
// Each journal event is one SSE frame — `id:` carries the journal
// sequence number, so a dropped client reconnects with Last-Event-ID
// (or ?after=N) and resumes exactly where it left off; `event:` is the
// journal event type and `data:` its JSON record. Merged events arrive
// in expansion order, so a client accumulates the same deterministic
// row prefix a local run would produce.

package main

import (
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro/internal/campaign"
)

// sseKeepalive is how often an idle stream emits a comment frame so
// proxies and clients can distinguish "no events" from a dead peer.
const sseKeepalive = 15 * time.Second

func (s *server) handleEvents(w http.ResponseWriter, req *http.Request) {
	r := s.lookup(w, req)
	if r == nil {
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		httpError(w, http.StatusInternalServerError, "response writer cannot stream")
		return
	}
	after, err := resumePoint(req)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}

	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	keepalive := time.NewTicker(sseKeepalive)
	defer keepalive.Stop()
	for {
		evs, wake, closed := r.jnl.EventsSince(after)
		for i := range evs {
			if err := writeSSE(w, &evs[i]); err != nil {
				return // client went away
			}
			after = evs[i].Seq
		}
		if len(evs) > 0 {
			flusher.Flush()
		}
		if closed {
			// Terminal: everything journaled has been delivered.
			fmt.Fprintf(w, "event: end\ndata: {\"run\":%q}\n\n", r.id)
			flusher.Flush()
			return
		}
		select {
		case <-req.Context().Done():
			return
		case <-wake:
		case <-keepalive.C:
			fmt.Fprint(w, ": keepalive\n\n")
			flusher.Flush()
		}
	}
}

// writeSSE renders one journal event as an SSE frame, its data encoded
// as the journal file encodes it.
func writeSSE(w http.ResponseWriter, ev *campaign.Event) error {
	frame, err := ev.AppendJSON(fmt.Appendf(nil, "id: %d\nevent: %s\ndata: ", ev.Seq, ev.Type))
	if err != nil {
		return err
	}
	_, err = w.Write(append(frame, "\n\n"...))
	return err
}

// resumePoint extracts the client's resume sequence: the standard
// Last-Event-ID header (set by browsers on reconnect) or an explicit
// ?after=N query. Zero streams from the beginning.
func resumePoint(req *http.Request) (int64, error) {
	raw := req.Header.Get("Last-Event-ID")
	if q := req.URL.Query().Get("after"); q != "" {
		raw = q
	}
	if raw == "" {
		return 0, nil
	}
	n, err := strconv.ParseInt(raw, 10, 64)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("bad resume id %q", raw)
	}
	return n, nil
}
