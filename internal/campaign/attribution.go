package campaign

import (
	"sort"

	"repro/internal/api"
	"repro/internal/stats"
)

// Wall-clock attribution over a run journal: where did the campaign's
// time actually go? Per-worker busy seconds and utilization, the
// cache-hit ratio, straggler cells and per-group (workload x kind)
// job-seconds percentiles, and the lease-churn counters
// (reassignments, missed heartbeats) — everything "Producing Wrong
// Data Without Doing Anything Obviously Wrong" says a single median
// hides. Computed purely from journal events, so it works live
// (mmmtail -follow), post-hoc (mmmtail -report) and in GET
// /campaigns/{id}.

// The report types live in internal/api (GET /v1/campaigns/{id}
// embeds the report and mmmtail renders it); Attribute — the journal
// fold that computes them — stays here with the journal it reads.
type Report = api.Report

// maxStragglers bounds the slowest-cells list.
const maxStragglers = 5

// Attribute computes the wall-clock attribution report from a run's
// journal events. Incomplete journals (a live or crashed run) are
// fine: the report covers whatever has been journaled so far.
func Attribute(runID string, events []Event) Report {
	rep := Report{Run: runID, Outcome: "running"}
	if len(events) == 0 {
		return rep
	}
	rep.WallSeconds = events[len(events)-1].Time.Sub(events[0].Time).Seconds()

	workers := map[string]*api.WorkerReport{}
	workerOf := func(name string) *api.WorkerReport {
		w := workers[name]
		if w == nil {
			w = &api.WorkerReport{Worker: name}
			workers[name] = w
		}
		return w
	}
	type cellTime struct {
		cell    int
		key     string
		worker  string
		seconds float64
	}
	var simulated []cellTime
	groups := map[string][]float64{}

	maxTrials, waves := 0, 0
	for i := range events {
		ev := &events[i]
		switch ev.Type {
		case EventExpanded:
			rep.Cells = ev.Total
			if ev.Precision != nil {
				rep.Adaptive = true
				maxTrials = ev.Precision.MaxTrials
			}
		case EventWaveScheduled:
			waves++
			rep.TrialsScheduled += ev.Trials
		case EventCellRetired:
			rep.CellsRetired++
			if ev.Capped {
				rep.CellsCapped++
			}
		case EventCacheHit:
			rep.CacheHits++
		case EventCompleted:
			w := workerOf(ev.Worker)
			w.Jobs++
			w.BusySeconds += float64(ev.WallMS) / 1000
		case EventFailed:
			if ev.Cell >= 0 {
				rep.Failures++
				if ev.Worker != "" {
					workerOf(ev.Worker).Failures++
				}
			} else {
				rep.Outcome = "failed"
			}
		case EventCanceled:
			if ev.Cell == -1 {
				rep.Outcome = "canceled"
			}
		case EventReassigned:
			rep.Reassignments++
		case EventHeartbeatMissed:
			rep.HeartbeatsMissed++
			if ev.Worker != "" {
				workerOf(ev.Worker).Failures++
			}
		case EventMerged:
			rep.Merged++
			if !ev.Hit && ev.Job != nil {
				secs := float64(ev.WallMS) / 1000
				simulated = append(simulated, cellTime{ev.Cell, ev.Key, ev.Worker, secs})
				g := ev.Job.Workload + "/" + ev.Job.Kind.String()
				groups[g] = append(groups[g], secs)
			}
		}
	}
	if rep.Cells > 0 && rep.Merged == rep.Cells && rep.Outcome == "running" {
		rep.Outcome = "done"
	}
	if rep.Adaptive && waves > 0 {
		// Adaptive cache hits land per wave; rate them against waves
		// scheduled, not cells merged.
		rep.CacheHitPct = 100 * float64(rep.CacheHits) / float64(waves)
	} else if rep.Merged > 0 {
		rep.CacheHitPct = 100 * float64(rep.CacheHits) / float64(rep.Merged)
	}
	if rep.Adaptive {
		// Trials saved vs fixed: the fixed-batch equivalent of an
		// adaptive run is cells x MaxTrials — the worst-case sample a
		// fixed design must provision to promise the same half-width
		// (see stats.WorstCaseTrials, the MaxTrials default).
		rep.TrialsFixed = rep.Cells * maxTrials
		if rep.TrialsFixed > 0 {
			rep.TrialsSavedPct = 100 * (1 - float64(rep.TrialsScheduled)/float64(rep.TrialsFixed))
		}
	}

	names := make([]string, 0, len(workers))
	for n := range workers {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		w := workers[n]
		rep.BusySeconds += w.BusySeconds
		if rep.WallSeconds > 0 {
			w.BusyPct = 100 * w.BusySeconds / rep.WallSeconds
		}
		rep.Workers = append(rep.Workers, *w)
	}

	gnames := make([]string, 0, len(groups))
	for g := range groups {
		gnames = append(gnames, g)
	}
	sort.Strings(gnames)
	for _, g := range gnames {
		secs := groups[g]
		sort.Float64s(secs)
		rep.Groups = append(rep.Groups, api.GroupReport{
			Group: g,
			Jobs:  len(secs),
			P50:   stats.PercentileSorted(secs, 50),
			P95:   stats.PercentileSorted(secs, 95),
			P99:   stats.PercentileSorted(secs, 99),
			Max:   secs[len(secs)-1],
		})
	}

	sort.Slice(simulated, func(i, k int) bool {
		if simulated[i].seconds != simulated[k].seconds {
			return simulated[i].seconds > simulated[k].seconds
		}
		return simulated[i].cell < simulated[k].cell
	})
	if len(simulated) > maxStragglers {
		simulated = simulated[:maxStragglers]
	}
	for _, c := range simulated {
		rep.Stragglers = append(rep.Stragglers, api.CellReport{
			Cell: c.cell, Key: c.key, Worker: c.worker, Seconds: c.seconds})
	}
	return rep
}
