// Command mmmtail follows and analyzes campaign run journals.
//
// Live, against a running mmmd: consume the SSE event stream of a
// campaign until it reaches a terminal state, printing per-cell
// progress and the final wall-clock attribution report. The client
// reconnects with Last-Event-ID on transport errors, so a bounced
// coordinator connection resumes instead of double-printing.
//
//	mmmtail -follow c1
//	mmmtail -follow c1 -addr http://127.0.0.1:8077 -json
//
// Post-hoc, against a journal file: validate the journal's structural
// invariants (monotonic sequence, exactly-once in-order merges), check
// that every -required event type occurs, and render the same
// attribution report from it.
//
//	mmmtail -report mmmd-cache/journals/c1.journal.jsonl
//	mmmtail -report c1.journal.jsonl -required expanded,leased,started,completed,merged
//
// Exit status: 0 when the run completed, 1 when it failed or was
// canceled (or the journal is invalid or lacks a required event type),
// 2 on usage or transport errors.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/api"
	"repro/internal/campaign"
)

func main() {
	var (
		follow   = flag.String("follow", "", "campaign id to stream live from mmmd")
		report   = flag.String("report", "", "journal file (JSONL) to validate and report on")
		addr     = flag.String("addr", "http://127.0.0.1:8077", "mmmd base URL for -follow")
		jsonOut  = flag.Bool("json", false, "emit the attribution report as JSON instead of text")
		quiet    = flag.Bool("quiet", false, "suppress per-event progress lines in -follow mode")
		required = flag.String("required", "", "with -report: comma-separated event types the journal must contain")
	)
	flag.Parse()

	switch {
	case *follow != "" && *report != "":
		fatal(2, "use -follow or -report, not both")
	case *follow != "":
		os.Exit(followRun(*addr, *follow, *jsonOut, *quiet))
	case *report != "":
		os.Exit(reportFile(*report, *required, *jsonOut))
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func fatal(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "mmmtail: "+format+"\n", args...)
	os.Exit(code)
}

// maxReconnects bounds how often -follow re-dials a dropped stream
// before giving up.
const maxReconnects = 10

// followRun streams one campaign's events to completion and prints
// the attribution report derived from them.
func followRun(addr, id string, jsonOut, quiet bool) int {
	base := strings.TrimSuffix(addr, "/")
	url := base + api.PathPrefix + "/campaigns/" + id + "/events"

	var events []campaign.Event
	var last int64
	done := false
	reconnects := 0
	for !done {
		err := streamSSE(url, last, func(ev campaign.Event) {
			events = append(events, ev)
			last = ev.Seq
			if !quiet {
				printEvent(&ev)
			}
		}, func() { done = true })
		if done {
			break
		}
		if err != nil {
			reconnects++
			if reconnects > maxReconnects {
				fmt.Fprintf(os.Stderr, "mmmtail: stream %s: %v (giving up after %d reconnects)\n",
					url, err, maxReconnects)
				return 2
			}
			fmt.Fprintf(os.Stderr, "mmmtail: stream %s: %v (resuming after id %d)\n", url, err, last)
			time.Sleep(time.Second)
			continue
		}
		// EOF without an end frame: the server closed the stream
		// cleanly but the run outlived the connection; resume.
	}

	rep := campaign.Attribute(id, events)
	writeReport(rep, jsonOut)
	if rep.Outcome != "done" {
		return 1
	}
	return 0
}

// reportFile validates a journal file, checks that each event type of
// the comma-separated required list occurs in it, and renders its
// report.
func reportFile(path, required string, jsonOut bool) int {
	events, err := campaign.ReadJournalFile(path)
	if err != nil {
		fatal(2, "%v", err)
	}
	chk, err := campaign.ValidateEvents(events)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mmmtail: invalid journal %s: %v\n", path, err)
		return 1
	}
	var missing []string
	for _, name := range strings.Split(required, ",") {
		name = strings.TrimSpace(name)
		if name != "" && chk.Types[api.EventType(name)] == 0 {
			missing = append(missing, name)
		}
	}
	if len(missing) > 0 {
		fmt.Fprintf(os.Stderr, "mmmtail: journal %s missing required event types: %s\n",
			path, strings.Join(missing, ", "))
		return 1
	}
	runID := ""
	for i := range events {
		if events[i].Run != "" {
			runID = events[i].Run
			break
		}
	}
	if !jsonOut {
		fmt.Printf("journal %s: %d events, %d/%d cells merged, outcome %s\n",
			path, chk.Events, chk.Merged, chk.Total, chk.Outcome)
	}
	rep := campaign.Attribute(runID, events)
	writeReport(rep, jsonOut)
	if rep.Outcome != "done" {
		return 1
	}
	return 0
}

func writeReport(rep campaign.Report, jsonOut bool) {
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		_ = enc.Encode(rep)
		return
	}
	rep.WriteText(os.Stdout)
}

// printEvent renders one journal event as a progress line.
func printEvent(ev *campaign.Event) {
	switch ev.Type {
	case campaign.EventExpanded:
		if ev.Precision != nil {
			fmt.Printf("expanded: %d cells (adaptive: %s half-width <= %g)\n",
				ev.Total, ev.Precision.Metric, ev.Precision.HalfWidth)
		} else {
			fmt.Printf("expanded: %d cells\n", ev.Total)
		}
	case campaign.EventWaveScheduled:
		fmt.Printf("wave %d/%-4d %-36s %d trials, half-width %.4f\n",
			ev.Wave, ev.Cell, ev.Key, ev.Trials, ev.HalfWidth)
	case campaign.EventCellRetired:
		why := "target met"
		if ev.Capped {
			why = "capped"
		}
		fmt.Printf("retired %4d %-36s %d trials, half-width %.4f (%s)\n",
			ev.Cell, ev.Key, ev.Trials, ev.HalfWidth, why)
	case campaign.EventMerged:
		src := "simulated"
		if ev.Hit {
			src = "cache"
		}
		fmt.Printf("merged %4d  %-36s %s\n", ev.Cell, ev.Key, src)
	case campaign.EventFailed:
		if ev.Cell >= 0 {
			fmt.Printf("failed %4d  %-36s attempt %d: %s\n", ev.Cell, ev.Key, ev.Attempt, ev.Error)
		} else {
			fmt.Printf("run failed: %s\n", ev.Error)
		}
	case campaign.EventHeartbeatMissed:
		fmt.Printf("lease lost %d (%s, worker %s)\n", ev.Cell, ev.Key, ev.Worker)
	case campaign.EventReassigned:
		fmt.Printf("reassigned %d (%s) to %s, attempt %d\n", ev.Cell, ev.Key, ev.Worker, ev.Attempt)
	case campaign.EventCanceled:
		if ev.Cell == -1 {
			fmt.Printf("run canceled\n")
		}
	}
}

// streamSSE consumes one SSE connection: each complete frame with a
// data payload is decoded as a journal event and handed to onEvent;
// an "end" frame calls onEnd and returns nil. A transport error
// returns it; the caller resumes from the last delivered id.
func streamSSE(url string, after int64, onEvent func(campaign.Event), onEnd func()) error {
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	if after > 0 {
		req.Header.Set("Last-Event-ID", strconv.FormatInt(after, 10))
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("GET %s: %d: %s", url, resp.StatusCode, strings.TrimSpace(string(body)))
	}
	return parseSSE(resp.Body, onEvent, onEnd)
}

// parseSSE reads text/event-stream frames. Split out from the
// transport so the frame grammar (id/event/data lines, comment lines,
// blank-line dispatch) is unit-testable.
func parseSSE(r io.Reader, onEvent func(campaign.Event), onEnd func()) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var event, data string
	dispatch := func() error {
		defer func() { event, data = "", "" }()
		if data == "" {
			return nil
		}
		if event == "end" {
			onEnd()
			return io.EOF
		}
		var ev campaign.Event
		if err := json.Unmarshal([]byte(data), &ev); err != nil {
			return fmt.Errorf("bad event payload %q: %w", data, err)
		}
		onEvent(ev)
		return nil
	}
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if err := dispatch(); err != nil {
				if err == io.EOF {
					return nil
				}
				return err
			}
		case strings.HasPrefix(line, ":"): // comment / keepalive
		case strings.HasPrefix(line, "event:"):
			event = strings.TrimSpace(strings.TrimPrefix(line, "event:"))
		case strings.HasPrefix(line, "data:"):
			data = strings.TrimSpace(strings.TrimPrefix(line, "data:"))
		case strings.HasPrefix(line, "id:"):
			// The resume cursor is tracked by the caller via Event.Seq.
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return fmt.Errorf("stream ended without an end frame")
}
