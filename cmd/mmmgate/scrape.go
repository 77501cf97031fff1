package main

// mmmgate scrape validates a Prometheus text exposition for CI: it
// parses the page strictly (version 0.0.4, the dialect mmmd emits),
// asserts that every -required metric family is present with at least
// one sample series, and enforces the -min-series floor.
//
//	curl -fsS localhost:8077/metrics | mmmgate scrape \
//	    -required mmmd_uptime_seconds,mmmd_campaign_runs -min-series 12
//	mmmgate scrape -in scrape.txt -required mmmd_cache_hits_total

import (
	"flag"
	"fmt"
	"sort"
	"strings"

	"repro/internal/obs"
)

func scrapeMain(args []string) {
	fs := flag.NewFlagSet("scrape", flag.ExitOnError)
	var (
		inPath    = fs.String("in", "-", "exposition text to validate ('-' = stdin)")
		required  = fs.String("required", "", "comma-separated metric family names that must be present")
		minSeries = fs.Int("min-series", 0, "minimum total sample series across all families")
		list      = fs.Bool("list", false, "print every family (name, type, series count) after validating")
	)
	_ = fs.Parse(args) // ExitOnError: Parse exits on a bad flag

	in, err := openInput(*inPath)
	if err != nil {
		exit(2, "scrape: %v", err)
	}
	fams, err := obs.ParseExposition(in)
	in.Close()
	if err != nil {
		exit(1, "scrape: invalid exposition: %v", err)
	}
	total := obs.TotalSeries(fams)

	var missing []string
	for _, name := range strings.Split(*required, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		if f := fams[name]; f == nil || len(f.Series) == 0 {
			missing = append(missing, name)
		}
	}

	if *list {
		names := make([]string, 0, len(fams))
		for n := range fams {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			f := fams[n]
			typ := f.Type
			if typ == "" {
				typ = "untyped"
			}
			fmt.Printf("%-40s %-9s %d series\n", n, typ, len(f.Series))
		}
	}

	if len(missing) > 0 {
		exit(1, "scrape: missing required families: %s", strings.Join(missing, ", "))
	}
	if total < *minSeries {
		exit(1, "scrape: only %d sample series, need at least %d", total, *minSeries)
	}
	fmt.Printf("mmmgate scrape: ok (%d families, %d series)\n", len(fams), total)
}
