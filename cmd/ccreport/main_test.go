package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/benchfmt"
	"repro/internal/perfhist"
)

// TestRenderLedger: a regular-file argument renders the perf ledger's
// trend report, in HTML and deterministically in text.
func TestRenderLedger(t *testing.T) {
	ledger := filepath.Join(t.TempDir(), "ledger.jsonl")
	for _, r := range []struct {
		commit, ts string
		ns         []float64
	}{
		{"aaaaaaa1111", "2026-08-01T10:00:00Z", []float64{1300, 1310, 1305}},
		{"bbbbbbb2222", "2026-08-02T10:00:00Z", []float64{1295, 1305, 1300}},
		{"ccccccc3333", "2026-08-03T10:00:00Z", []float64{780, 785, 782}},
	} {
		b := benchfmt.Benchmark{Name: "BenchmarkCompressedExecution",
			NsPerOp: benchfmt.NewDist(r.ns).Mean, Samples: map[string][]float64{benchfmt.MetricNs: r.ns}}
		if err := perfhist.Append(ledger, &perfhist.Entry{
			Schema: perfhist.SchemaVersion, Commit: r.commit, Timestamp: r.ts, CPU: "Test CPU",
			Report: &benchfmt.Report{Benchmarks: []benchfmt.Benchmark{b}},
		}); err != nil {
			t.Fatal(err)
		}
	}

	r, err := buildReport(false, []string{ledger})
	if err != nil {
		t.Fatal(err)
	}
	var html bytes.Buffer
	if err := r.WriteHTML(&html); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"perf trend: 3 ledger entries", "<svg", "#e34948"} {
		if !strings.Contains(html.String(), want) {
			t.Errorf("trend HTML missing %q", want)
		}
	}

	// Text render of the same ledger is deterministic across calls.
	var txt [2]bytes.Buffer
	for i := range txt {
		r, err := buildReport(false, []string{ledger})
		if err != nil {
			t.Fatal(err)
		}
		if err := r.WriteText(&txt[i]); err != nil {
			t.Fatal(err)
		}
	}
	if txt[0].String() != txt[1].String() {
		t.Error("text renders differ")
	}
	if !strings.Contains(txt[0].String(), "@ccccccc") {
		t.Errorf("text render does not flag the changepoint commit:\n%s", txt[0].String())
	}
}

// TestBuildReportArgs: a missing path is neither a ledger nor a bundle,
// and -diff takes exactly two bundles.
func TestBuildReportArgs(t *testing.T) {
	if _, err := buildReport(false, []string{filepath.Join(t.TempDir(), "missing")}); err == nil {
		t.Error("missing path accepted")
	}
	if _, err := buildReport(true, []string{"a"}); err == nil {
		t.Error("-diff with one argument accepted")
	}
}
