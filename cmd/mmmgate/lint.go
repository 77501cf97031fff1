package main

// mmmgate lint runs the repository's map-order analyzer
// (internal/lint) over the packages, _test.go files included, and
// prints each finding as file:line:col: analyzer: message.
//
//	mmmgate lint                      # ./...
//	mmmgate lint ./internal/core/...

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/lint"
)

func lintMain(args []string) {
	fs := flag.NewFlagSet("lint", flag.ExitOnError)
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: mmmgate lint [packages]  (default ./...)")
	}
	_ = fs.Parse(args) // ExitOnError: Parse exits on a bad flag

	pkgs, err := lint.Load(".", fs.Args()...)
	if err != nil {
		exit(2, "%v", err)
	}
	findings, err := lint.RunAnalyzers(pkgs, lint.All())
	if err != nil {
		exit(2, "%v", err)
	}
	if wd, err := os.Getwd(); err == nil {
		lint.Relativize(wd, findings)
	}
	if err := lint.WriteText(os.Stdout, findings); err != nil {
		exit(2, "lint: %v", err)
	}
	if len(findings) > 0 {
		exit(1, "lint: %d finding(s)", len(findings))
	}
	fmt.Printf("mmmgate lint: ok (%d packages)\n", len(pkgs))
}
