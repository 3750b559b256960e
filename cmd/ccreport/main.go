// Command ccreport is the repository's one reader: it renders a run
// bundle, a pairwise diff of two bundles, or the perf-history ledger as a
// standalone, dependency-free HTML page or an aligned text report.
//
// Usage:
//
//	ccreport bundledir              # HTML report of one bundle to stdout
//	ccreport -o report.html dir     # same, to a file
//	ccreport -text dir              # aligned text instead of HTML
//	ccreport -diff olddir newdir    # pairwise diff report
//	ccreport perf-ledger.jsonl      # perf trend: sparklines with 95% CI
//	                                # bands, changepoints, worst regressions
//
// A directory argument is a bundle; a regular file is a ledger written by
// `benchdiff -append`.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/obs"
	"repro/internal/perfhist"
)

func main() {
	var (
		out  = flag.String("o", "-", "output file (- = stdout)")
		text = flag.Bool("text", false, "render aligned text instead of HTML")
		diff = flag.Bool("diff", false, "compare two bundles: ccreport -diff OLD NEW")
	)
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"usage: ccreport [-o out] [-text] BUNDLEDIR|LEDGER.jsonl\n       ccreport [-o out] [-text] -diff OLDDIR NEWDIR\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	r, err := buildReport(*diff, flag.Args())
	if err != nil {
		fmt.Fprintln(os.Stderr, "ccreport:", err)
		os.Exit(1)
	}
	render := r.WriteHTML
	if *text {
		render = r.WriteText
	}
	if err := obs.WriteTextFile(*out, func(w io.Writer) error { return render(w) }); err != nil {
		fmt.Fprintln(os.Stderr, "ccreport:", err)
		os.Exit(1)
	}
}

func buildReport(diff bool, args []string) (*obs.Report, error) {
	if diff {
		if len(args) != 2 {
			return nil, fmt.Errorf("-diff needs exactly two bundle directories, got %d", len(args))
		}
		old, err := obs.Open(args[0])
		if err != nil {
			return nil, fmt.Errorf("old bundle %s: %w", args[0], err)
		}
		new, err := obs.Open(args[1])
		if err != nil {
			return nil, fmt.Errorf("new bundle %s: %w", args[1], err)
		}
		return obs.DiffReport(obs.NewDiff(old, new)), nil
	}
	if len(args) != 1 {
		return nil, fmt.Errorf("need exactly one bundle directory or ledger file, got %d", len(args))
	}
	if fi, err := os.Stat(args[0]); err == nil && fi.Mode().IsRegular() {
		entries, err := perfhist.Load(args[0])
		if err != nil {
			return nil, err
		}
		return perfhist.TrendReport(entries), nil
	}
	b, err := obs.Open(args[0])
	if err != nil {
		return nil, fmt.Errorf("bundle %s: %w", args[0], err)
	}
	return obs.BundleReport(b), nil
}
