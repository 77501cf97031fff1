package main

// mmmgate bench is the performance gate: a same-box A/B of the
// benchmark that BENCHMARK.json declares, a parent commit against a
// head commit.
//
//	mmmgate bench <parent-rev> [<head-rev>]    # head defaults to HEAD
//	mmmgate bench HEAD HEAD                    # A/A: the noise floor
//
// Both commits are checked out as detached worktrees at sibling paths
// of equal length, removed on every exit path, and the head's
// benchmark is checked out over the parent's, so the two sides differ
// only in the program under test (Mytkowicz et al., ASPLOS 2009).
// Uncommitted edits are not measured. Each workload runs in pairs
// whose order alternates. The gate fails when an end-to-end metric of
// the head is worse than its bound on every pair, when a head run
// reports incorrect outputs, or when the head fails a larger share of
// its operations than the parent.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// pairs is the number of parent/head run pairs per workload. It is
// even so that alternating the order puts an order effect on each side
// equally often; with every pair required beyond the bound, an order
// effect alone cannot fail the gate.
const pairs = 2

// firstSeed is the seed of pair 0; pair i runs seed firstSeed+i.
const firstSeed = 11

// sideNames names the two sides of a pair; a side is its index.
var sideNames = [2]string{"parent", "head"}

// benchmark is the part of BENCHMARK.json the gate reads.
type benchmark struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// decodeBenchmark decodes and checks a BENCHMARK.json.
func decodeBenchmark(data []byte) (*benchmark, error) {
	var bm benchmark
	if err := json.Unmarshal(data, &bm); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	if len(bm.Command) == 0 || len(bm.Workloads) == 0 || len(bm.EndToEnd) == 0 || bm.RunSeconds < 1 {
		return nil, errors.New("BENCHMARK.json: need a command, run_seconds, workloads and end_to_end metrics")
	}
	for _, m := range bm.EndToEnd {
		if (m.Better != "lower" && m.Better != "higher") || m.Bound <= 0 {
			return nil, fmt.Errorf("BENCHMARK.json: metric %s: need better lower|higher and a positive bound", m.Name)
		}
	}
	return &bm, nil
}

// runResult is the last line of one benchmark run's output.
type runResult struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// runFunc runs one workload at one seed on one side (0 parent, 1 head).
type runFunc func(side int, workload string, seed int) (runResult, error)

// measured holds each workload's runs, indexed by pair, then side.
type measured map[string][pairs][2]runResult

// measure runs every workload in pairs: pair i runs seed firstSeed+i
// on both sides, the parent first when i is even and the head first
// when it is odd.
func measure(bm *benchmark, run runFunc) (measured, error) {
	res := make(measured, len(bm.Workloads))
	for _, w := range bm.Workloads {
		var rs [pairs][2]runResult
		for i := range rs {
			for _, side := range [2]int{i % 2, 1 - i%2} {
				r, err := run(side, w.Name, firstSeed+i)
				if err != nil {
					return nil, fmt.Errorf("%s %s seed %d: %w", sideNames[side], w.Name, firstSeed+i, err)
				}
				rs[i][side] = r
			}
		}
		res[w.Name] = rs
	}
	return res, nil
}

// verdict compares the head against the parent for every workload and
// end-to-end metric. It returns the report lines and one line per
// failed check; a metric missing from a run is an error.
func verdict(bm *benchmark, res measured) (report, failures []string, err error) {
	head := fmt.Sprintf("%-16s %-16s", "workload", "metric")
	for i := 0; i < pairs; i++ {
		head += fmt.Sprintf(" seed %2d", firstSeed+i)
	}
	report = append(report, head+"  (head against parent, + is worse)")
	for _, w := range bm.Workloads {
		rs := res[w.Name]
		var failed, attempted [2]int
		for i := range rs {
			for s := range rs[i] {
				failed[s] += rs[i][s].Failed
				attempted[s] += rs[i][s].Attempted
			}
			if !rs[i][1].Correct {
				failures = append(failures, fmt.Sprintf("%s: head run at seed %d reports incorrect outputs", w.Name, firstSeed+i))
			}
		}
		report = append(report, fmt.Sprintf("%-16s %-16s head %d/%d, parent %d/%d",
			w.Name, "failed", failed[1], attempted[1], failed[0], attempted[0]))
		if failed[1]*attempted[0] > failed[0]*attempted[1] {
			failures = append(failures, fmt.Sprintf("%s: head failed %d of %d operations, parent %d of %d",
				w.Name, failed[1], attempted[1], failed[0], attempted[0]))
		}
		for _, m := range bm.EndToEnd {
			line := fmt.Sprintf("%-16s %-16s", w.Name, m.Name)
			beyond := 0
			for i := range rs {
				var v [2]float64
				for s := range v {
					mv, ok := rs[i][s].Metrics[m.Name]
					if !ok {
						return nil, nil, fmt.Errorf("%s %s seed %d: no metric %s", sideNames[s], w.Name, firstSeed+i, m.Name)
					}
					v[s] = mv.Value
				}
				worse := (v[1] - v[0]) / v[0]
				if m.Better == "higher" {
					worse = -worse
				}
				if worse > m.Bound {
					beyond++
				}
				line += fmt.Sprintf(" %+6.1f%%", 100*worse)
			}
			line += fmt.Sprintf("  bound %.0f%%", 100*m.Bound)
			if beyond == len(rs) {
				line += "  REGRESSION"
				failures = append(failures, fmt.Sprintf("%s %s: worse than the %.0f%% bound on every pair",
					w.Name, m.Name, 100*m.Bound))
			}
			report = append(report, line)
		}
	}
	return report, failures, nil
}

// output runs name in dir ("" is the current directory), passing its
// standard error through, and returns its trimmed standard output.
func output(ctx context.Context, dir, name string, args ...string) (string, error) {
	cmd := exec.CommandContext(ctx, name, args...)
	cmd.Dir, cmd.Stderr = dir, os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("%s %s: %w", name, strings.Join(args, " "), err)
	}
	return strings.TrimSpace(string(out)), nil
}

// runBench runs the benchmark command of bm in dir and decodes the
// last line of its output.
func runBench(ctx context.Context, bm *benchmark, dir, workload string, seed int) (runResult, error) {
	args := append(append([]string(nil), bm.Command[1:]...), "--workload", workload,
		"--seed", strconv.Itoa(seed), "--seconds", strconv.Itoa(bm.RunSeconds), "--trace", "0")
	out, err := output(ctx, dir, bm.Command[0], args...)
	if err != nil {
		return runResult{}, err
	}
	var r runResult
	if err := json.Unmarshal([]byte(out[strings.LastIndexByte(out, '\n')+1:]), &r); err != nil {
		return runResult{}, fmt.Errorf("last output line: %w", err)
	}
	return r, nil
}

// benchAB gates headRev against parentRev and returns the exit code
// with its reason: 1 for a failed check, 2 for a usage, setup or build
// error.
func benchAB(ctx context.Context, parentRev, headRev string) (int, error) {
	tmp, err := os.MkdirTemp("", "mmmgate-bench-")
	if err != nil {
		return 2, err
	}
	defer func() {
		if err := os.RemoveAll(tmp); err != nil {
			fmt.Fprintln(os.Stderr, "mmmgate bench:", err)
		}
		if _, err := output(context.Background(), "", "git", "worktree", "prune"); err != nil {
			fmt.Fprintln(os.Stderr, "mmmgate bench:", err)
		}
	}()
	var revs [2]string
	dirs := [2]string{filepath.Join(tmp, "a"), filepath.Join(tmp, "b")}
	for s, rev := range []string{parentRev, headRev} {
		if revs[s], err = output(ctx, "", "git", "rev-parse", "--verify", "--end-of-options", rev+"^{commit}"); err != nil {
			return 2, err
		}
		if _, err := output(ctx, "", "git", "worktree", "add", "--quiet", "--detach", dirs[s], revs[s]); err != nil {
			return 2, err
		}
	}
	data, err := os.ReadFile(filepath.Join(dirs[1], "BENCHMARK.json"))
	if err != nil {
		return 2, err
	}
	bm, err := decodeBenchmark(data)
	if err != nil {
		return 2, err
	}
	if _, err := output(ctx, dirs[0], "git", append([]string{"checkout", "--quiet", revs[1], "--", "BENCHMARK.json"}, bm.Paths...)...); err != nil {
		return 2, err
	}

	fmt.Printf("mmmgate bench: parent %.12s (%s) against head %.12s (%s): %d workloads, %d pairs at %d s\n",
		revs[0], parentRev, revs[1], headRev, len(bm.Workloads), pairs, bm.RunSeconds)
	res, err := measure(bm, func(side int, workload string, seed int) (runResult, error) {
		start := time.Now()
		r, err := runBench(ctx, bm, dirs[side], workload, seed)
		if err == nil {
			fmt.Printf("mmmgate bench: ran %-6s %-16s seed %d in %.0f s\n",
				sideNames[side], workload, seed, time.Since(start).Seconds())
		}
		return r, err
	})
	if err != nil {
		return 2, err
	}
	report, failures, err := verdict(bm, res)
	if err != nil {
		return 2, err
	}
	for _, line := range report {
		fmt.Println("mmmgate bench:", line)
	}
	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Println("mmmgate bench: FAIL", f)
		}
		return 1, fmt.Errorf("%d check(s) failed", len(failures))
	}
	fmt.Println("mmmgate bench: ok")
	return 0, nil
}

func benchMain(args []string) {
	if len(args) < 1 || len(args) > 2 || strings.HasPrefix(args[0], "-") {
		exit(2, "bench: usage: mmmgate bench <parent-rev> [<head-rev>]  (head defaults to HEAD)")
	}
	revs := append(args, "HEAD") // the head defaults to HEAD
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code, err := benchAB(ctx, revs[0], revs[1])
	stop()
	if err != nil {
		exit(code, "bench: %v", err)
	}
}
