// Command cctrend is the perf-history ledger's front end: it appends
// benchmarking runs to the append-only JSONL ledger (internal/perfhist)
// and renders the ledger as a standalone, dependency-free HTML timeline —
// per-metric sparklines with 95% CI bands, changepoint marks, and a
// worst-regressions table — or as aligned text.
//
// Usage:
//
//	cctrend ledger.jsonl                 # HTML trend report to stdout
//	cctrend -o trend.html ledger.jsonl   # same, to a file
//	cctrend -text ledger.jsonl           # aligned text instead of HTML
//	cctrend -append BENCH.json -commit SHA -time 2026-08-08T12:00:00Z ledger.jsonl
//
// Append mode validates the entry before writing and writes it as one
// atomic line, so a broken report or interrupted run can never corrupt
// the ledger. Commit and timestamp are caller-supplied (like the
// identity fields of obs bundles) so replaying a run appends a
// byte-identical line; the CPU is the report's own cpu header and the Go
// version the running toolchain's.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"

	"repro/internal/benchfmt"
	"repro/internal/obs"
	"repro/internal/perfhist"
)

func main() {
	var (
		out     = flag.String("o", "-", "output file for render mode (- = stdout)")
		text    = flag.Bool("text", false, "render aligned text instead of HTML")
		appendF = flag.String("append", "", "append mode: BENCH_*.json report to add to the ledger")
		commit  = flag.String("commit", "", "append mode: git commit the report was measured at (required)")
		timeF   = flag.String("time", "", "append mode: RFC3339 timestamp of the run (required)")
	)
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"usage: cctrend [-o out] [-text] LEDGER.jsonl\n       cctrend -append BENCH.json -commit SHA -time RFC3339 LEDGER.jsonl\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}
	ledger := flag.Arg(0)

	var err error
	if *appendF != "" {
		err = runAppend(ledger, *appendF, *commit, *timeF)
	} else {
		err = runRender(ledger, *out, *text)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "cctrend:", err)
		os.Exit(1)
	}
}

func runAppend(ledger, reportPath, commit, timestamp string) error {
	if commit == "" || timestamp == "" {
		return fmt.Errorf("-append requires -commit and -time")
	}
	rep, err := benchfmt.ReadFile(reportPath)
	if err != nil {
		return err
	}
	return perfhist.Append(ledger, &perfhist.Entry{
		Schema:    perfhist.SchemaVersion,
		Commit:    commit,
		Timestamp: timestamp,
		GoVersion: runtime.Version(),
		CPU:       rep.CPU,
		Report:    rep,
	})
}

func runRender(ledger, out string, text bool) error {
	entries, err := perfhist.Load(ledger)
	if err != nil {
		return err
	}
	r := perfhist.TrendReport(entries)
	render := r.WriteHTML
	if text {
		render = r.WriteText
	}
	return obs.WriteTextFile(out, func(w io.Writer) error { return render(w) })
}
