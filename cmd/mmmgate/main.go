// Command mmmgate holds the repository's CI gates, one subcommand per
// check, each reading its input once:
//
//	mmmgate bench  <parent-rev> [<head-rev>]
//	mmmgate relia  -fixed fixed.txt -adaptive adaptive.txt
//	mmmgate scrape -in metrics.txt -min-series 12 -required mmmd_uptime_seconds,mmmd_campaign_runs
//	mmmgate lint   ./...
//
// bench runs the repository benchmark (BENCHMARK.json) on two commits
// on one machine, alternating them, and fails when an end-to-end metric
// of the head is worse than its bound on every pair; relia gates an
// adaptive reliability run's trial savings and interval agreement
// against a fixed-batch run; scrape validates a Prometheus text
// exposition; lint runs internal/lint's map-order analyzer over the
// packages and their _test.go files. Run journals are checked by
// `mmmtail -report`.
//
// Exit status: 0 when the check passes, 1 when it fails, 2 on a usage
// or input error (for bench, also a setup or build error; for lint, a
// package that does not load or a pattern that matches none).
package main

import (
	"fmt"
	"io"
	"os"
)

var subcommands = map[string]func(args []string){
	"bench":  benchMain,
	"relia":  reliaMain,
	"scrape": scrapeMain,
	"lint":   lintMain,
}

func main() {
	if len(os.Args) < 2 || subcommands[os.Args[1]] == nil {
		fmt.Fprintln(os.Stderr, "usage: mmmgate bench|relia|scrape|lint [args]  (mmmgate <subcommand> -h explains its arguments)")
		os.Exit(2)
	}
	subcommands[os.Args[1]](os.Args[2:])
}

// exit prints a diagnostic and terminates: code 1 for a failed check,
// 2 for a usage or input error.
func exit(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "mmmgate "+format+"\n", args...)
	os.Exit(code)
}

// openInput opens path for reading; "-" is standard input.
func openInput(path string) (io.ReadCloser, error) {
	if path == "-" {
		return io.NopCloser(os.Stdin), nil
	}
	return os.Open(path)
}
