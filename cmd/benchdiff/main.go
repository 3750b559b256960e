// Command benchdiff is the repository's benchmark tool: it records
// `go test -bench` output as a BENCH_*.json report, appends a report to
// the perf-history ledger (internal/perfhist; `ccreport LEDGER` renders
// it), and compares two reports as a regression gate.
//
//	go test -bench . -count=5 . | benchdiff -record > BENCH_dictionary.json
//	benchdiff -append perf-ledger.jsonl -commit SHA -time 2026-08-08T12:00:00Z BENCH_dictionary.json
//	benchdiff -threshold 20 -max compressed_vs_native_ratio=1.15 old.json new.json
//
// -record keeps every -count sample per metric and adds the derived
// cross-benchmark ratios; it fails on input without benchmark lines, so a
// broken bench run never overwrites a report. -append stamps the
// caller's commit and time, the report's CPU and the toolchain's Go
// version, so replaying a run appends a byte-identical line.
//
// A comparison prints ns/op and every custom metric both sides share.
// With -threshold, a metric fails when it grew by more than that percent
// (every tracked metric is a cost) and a two-sided Mann-Whitney U test
// over both sides' samples rejects "same distribution" at
// benchfmt.DefaultAlpha; a delta without two samples a side cannot be
// tested and fails too. -max (repeatable) is an absolute ceiling on the
// new report, checked against the 95% CI upper bound; naming an absent
// metric fails. Benchmarks only one side carries are listed but never
// fail; two reports with none in common do, since comparing nothing is
// the failure this tool exists to prevent.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"

	"repro/internal/benchfmt"
	"repro/internal/obs"
	"repro/internal/perfhist"
)

// ceilingFlags collects repeatable -max name=value arguments.
type ceilingFlags []benchfmt.Ceiling

func (c *ceilingFlags) String() string {
	parts := make([]string, len(*c))
	for i, x := range *c {
		parts[i] = fmt.Sprintf("%s=%g", x.Metric, x.Limit)
	}
	return strings.Join(parts, ",")
}

func (c *ceilingFlags) Set(s string) error {
	name, val, ok := strings.Cut(s, "=")
	if !ok || name == "" {
		return fmt.Errorf("want metric=value, got %q", s)
	}
	limit, err := strconv.ParseFloat(val, 64)
	if err != nil {
		return fmt.Errorf("limit %q: %w", val, err)
	}
	*c = append(*c, benchfmt.Ceiling{Metric: name, Limit: limit})
	return nil
}

func main() {
	var (
		record    = flag.Bool("record", false, "read `go test -bench` output on stdin and write the BENCH JSON report, derived metrics included, to stdout")
		ledger    = flag.String("append", "", "append the BENCH.json argument to this perf-history ledger (JSONL)")
		commit    = flag.String("commit", "", "with -append: git commit the report was measured at (required)")
		stamp     = flag.String("time", "", "with -append: RFC3339 timestamp of the run (required)")
		threshold = flag.Float64("threshold", 0, "fail (exit 1) when any metric regresses by more than this percent and the change is significant (Mann-Whitney p <= 0.05); 0 disables the gate")
		ceilings  ceilingFlags
	)
	flag.Var(&ceilings, "max", "metric=value absolute ceiling on the new report (repeatable), checked against the 95% CI upper bound when samples are present; fail when exceeded or the metric is absent")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: benchdiff -record < bench.txt > BENCH.json\n"+
			"       benchdiff -append LEDGER.jsonl -commit SHA -time RFC3339 BENCH.json\n"+
			"       benchdiff [-threshold pct] [-max metric=value]... old.json new.json\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	var err error
	switch {
	case *record && *ledger == "" && flag.NArg() == 0:
		err = runRecord(os.Stdin, os.Stdout)
	case !*record && *ledger != "" && flag.NArg() == 1:
		err = runAppend(*ledger, flag.Arg(0), *commit, *stamp)
	case !*record && *ledger == "" && flag.NArg() == 2:
		err = run(flag.Arg(0), flag.Arg(1), *threshold, ceilings)
	default:
		flag.Usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
		os.Exit(1)
	}
}

// runRecord converts `go test -bench` output into an indented BENCH JSON
// report with the derived cross-benchmark metrics attached.
func runRecord(in io.Reader, out io.Writer) error {
	rep, err := benchfmt.Parse(bufio.NewScanner(in))
	if err != nil {
		return fmt.Errorf("parsing stdin: %w", err)
	}
	rep.AddDerived()
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// runAppend stamps one BENCH report with its run identity and appends it
// to the ledger.
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

func run(oldPath, newPath string, threshold float64, ceilings []benchfmt.Ceiling) error {
	oldRep, err := benchfmt.ReadFile(oldPath)
	if err != nil {
		return err
	}
	newRep, err := benchfmt.ReadFile(newPath)
	if err != nil {
		return err
	}
	cmp := benchfmt.Compare(oldRep, newRep)
	if len(cmp.Deltas) == 0 {
		return fmt.Errorf("%s and %s share no benchmarks", oldPath, newPath)
	}
	if err := deltaReport(oldPath, newPath, cmp).WriteText(os.Stdout); err != nil {
		return err
	}

	const alpha = benchfmt.DefaultAlpha
	if threshold > 0 {
		if regs := cmp.SignificantRegressions(threshold, alpha); len(regs) > 0 {
			fmt.Printf("\n%d metric(s) regressed beyond %.1f%% significantly (p <= %g, or too few samples to test):\n",
				len(regs), threshold, alpha)
			for _, d := range regs {
				fmt.Printf("  %s %s: %s -> %s (%+.1f%%, p %s)\n",
					d.Bench, d.Metric, obs.FormatValue(d.Old), obs.FormatValue(d.New), d.Pct(), pCell(d.P))
			}
			return fmt.Errorf("regression threshold exceeded (%s -> %s)", oldPath, newPath)
		}
		fmt.Printf("\nno metric regressed beyond %.1f%% with significance p <= %g\n", threshold, alpha)
	}
	if len(ceilings) > 0 {
		over, err := newRep.Exceeded(ceilings)
		if err != nil {
			return fmt.Errorf("%s: %w", newPath, err)
		}
		if len(over) > 0 {
			fmt.Printf("\n%d metric(s) exceeded an absolute ceiling:\n", len(over))
			for _, d := range over {
				bound := ""
				if d.NewDist.N > 1 {
					bound = fmt.Sprintf(" (CI upper bound of %d samples, mean %s)", d.NewDist.N, obs.FormatValue(d.NewDist.Mean))
				}
				fmt.Printf("  %s %s: %s > limit %s%s\n", d.Bench, d.Metric, obs.FormatValue(d.New), obs.FormatValue(d.Old), bound)
			}
			return fmt.Errorf("absolute ceiling exceeded (%s)", newPath)
		}
		fmt.Printf("all %d absolute ceiling(s) hold\n", len(ceilings))
	}
	return nil
}

// deltaReport lays the comparison out as an obs report: one row per
// shared metric, plus the benchmarks only one side carries.
func deltaReport(oldPath, newPath string, cmp *benchfmt.Comparison) *obs.Report {
	t := obs.ReportTable{
		Title: "Deltas",
		Note:  "old/new: mean ±95% CI half-width (n samples); p: two-sided Mann-Whitney, - with fewer than two samples a side",
		Head:  []string{"benchmark", "metric", "old", "new", "delta", "p"},
		Num:   []bool{false, false, true, true, true, true},
	}
	for _, d := range cmp.Deltas {
		t.Rows = append(t.Rows, []string{
			d.Bench, d.Metric, distCell(d.Old, d.OldDist), distCell(d.New, d.NewDist),
			fmt.Sprintf("%+.1f%%", d.Pct()), pCell(d.P),
		})
	}
	r := &obs.Report{Title: fmt.Sprintf("benchdiff: %s -> %s", oldPath, newPath), Tables: []obs.ReportTable{t}}
	if len(cmp.OldOnly) > 0 {
		r.KV = append(r.KV, [2]string{"only in " + oldPath, strings.Join(cmp.OldOnly, ", ")})
	}
	if len(cmp.NewOnly) > 0 {
		r.KV = append(r.KV, [2]string{"only in " + newPath, strings.Join(cmp.NewOnly, ", ")})
	}
	return r
}

// distCell renders a metric's value for the delta table: the bare mean
// for single-sample sides, "mean ±halfwidth (n)" once a 95% CI exists.
func distCell(mean float64, d benchfmt.Dist) string {
	if d.N <= 1 {
		return obs.FormatValue(mean)
	}
	return fmt.Sprintf("%s ±%s (n=%d)", obs.FormatValue(d.Mean), obs.FormatValue(d.CIHigh-d.Mean), d.N)
}

// pCell renders a Mann-Whitney p-value; "-" when there were not enough
// samples to test.
func pCell(p float64) string {
	if math.IsNaN(p) {
		return "-"
	}
	return fmt.Sprintf("%.3f", p)
}
