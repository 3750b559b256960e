package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/benchfmt"
	"repro/internal/perfhist"
)

func writeReport(t *testing.T, dir, name string, ns []float64, metrics map[string][]float64) string {
	t.Helper()
	b := benchfmt.Benchmark{Name: "BenchmarkX", NsPerOp: benchfmt.NewDist(ns).Mean,
		Samples: map[string][]float64{}}
	if len(ns) > 1 {
		b.Samples[benchfmt.MetricNs] = ns
	}
	for m, s := range metrics {
		if b.Metrics == nil {
			b.Metrics = map[string]float64{}
		}
		b.Metrics[m] = benchfmt.NewDist(s).Mean
		if len(s) > 1 {
			b.Samples[m] = s
		}
	}
	if len(b.Samples) == 0 {
		b.Samples = nil
	}
	rep := benchfmt.Report{CPU: "Test CPU", Benchmarks: []benchfmt.Benchmark{b}}
	data, err := json.Marshal(&rep)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestSignificantGateNoiseRobustness is the acceptance check for the
// noise-aware gate: run-to-run noise whose confidence intervals overlap
// passes the gate at a threshold the raw means exceed, while a
// genuine shift with separated distributions still fails.
func TestSignificantGateNoiseRobustness(t *testing.T) {
	dir := t.TempDir()

	// Noise: the means differ ~11% but the sample clouds interleave.
	old := writeReport(t, dir, "old.json", []float64{100, 140, 105, 150, 117}, nil)
	noisy := writeReport(t, dir, "noisy.json", []float64{110, 160, 120, 140, 152}, nil)
	// The mean moves past the threshold...
	if pct := 100 * (benchfmt.NewDist([]float64{110, 160, 120, 140, 152}).Mean/
		benchfmt.NewDist([]float64{100, 140, 105, 150, 117}).Mean - 1); pct <= 10 {
		t.Fatalf("test setup: mean moved %.1f%%, want > 10%%", pct)
	}
	// ...but the gate sees overlapping sample clouds and passes.
	if err := run(old, noisy, 10, nil); err != nil {
		t.Errorf("gate failed on CI-overlapping noise: %v", err)
	}

	// Genuine regression: ≥10% shift, non-overlapping sample clouds.
	base := writeReport(t, dir, "base.json", []float64{100, 101, 102, 103, 104}, nil)
	slow := writeReport(t, dir, "slow.json", []float64{115, 116, 117, 118, 119}, nil)
	err := run(base, slow, 10, nil)
	if err == nil {
		t.Fatal("gate passed a genuine 15% shift")
	}
	if !strings.Contains(err.Error(), base) || !strings.Contains(err.Error(), slow) {
		t.Errorf("gate error %q does not name both files", err)
	}
}

// TestSignificantGateFailsWithoutSamples: single-sample reports cannot be
// significance-tested, and an untestable regression must still fail.
func TestSignificantGateFailsWithoutSamples(t *testing.T) {
	dir := t.TempDir()
	old := writeReport(t, dir, "old.json", []float64{100}, nil)
	slow := writeReport(t, dir, "slow.json", []float64{150}, nil)
	if err := run(old, slow, 10, nil); err == nil {
		t.Error("untestable 50% regression waved through")
	}
}

func TestCeilingAgainstCIUpperBound(t *testing.T) {
	dir := t.TempDir()
	old := writeReport(t, dir, "old.json", []float64{100}, nil)
	// Mean ratio 1.0 but wide spread: CI upper bound crosses 1.05.
	wide := writeReport(t, dir, "wide.json", []float64{100, 100, 100},
		map[string][]float64{"r": {0.9, 1.0, 1.1}})
	err := run(old, wide, 0, []benchfmt.Ceiling{{Metric: "r", Limit: 1.05}})
	if err == nil {
		t.Fatal("wide-CI ceiling violation passed")
	}
	if !strings.Contains(err.Error(), "wide.json") {
		t.Errorf("ceiling error %q does not name the offending file", err)
	}
	// Same mean with tight samples stays under the ceiling.
	tight := writeReport(t, dir, "tight.json", []float64{100, 100, 100},
		map[string][]float64{"r": {0.99, 1.0, 1.01}})
	if err := run(old, tight, 0, []benchfmt.Ceiling{{Metric: "r", Limit: 1.05}}); err != nil {
		t.Errorf("tight-CI report failed the same ceiling: %v", err)
	}
}

func TestAbsentCeilingMetricNamesFile(t *testing.T) {
	dir := t.TempDir()
	old := writeReport(t, dir, "old.json", []float64{100}, nil)
	neu := writeReport(t, dir, "new.json", []float64{100}, nil)
	err := run(old, neu, 0, []benchfmt.Ceiling{{Metric: "no_such", Limit: 1}})
	if err == nil {
		t.Fatal("absent ceiling metric accepted")
	}
	if !strings.Contains(err.Error(), "new.json") || !strings.Contains(err.Error(), "no_such") {
		t.Errorf("error %q does not name the file and metric", err)
	}
}

// TestRecordMergesSuffixedSamples: -record on a multi-core transcript
// strips the -GOMAXPROCS suffix, merges the -count samples and attaches
// the derived execution ratio.
func TestRecordMergesSuffixedSamples(t *testing.T) {
	const in = `cpu: Test CPU
BenchmarkNativeExecution-2       100   200 ns/op
BenchmarkNativeExecution-2       100   200 ns/op
BenchmarkCompressedExecution-2   100   220 ns/op
BenchmarkCompressedExecution-2   100   220 ns/op
PASS
`
	var out strings.Builder
	if err := runRecord(strings.NewReader(in), &out); err != nil {
		t.Fatal(err)
	}
	var rep benchfmt.Report
	if err := json.Unmarshal([]byte(out.String()), &rep); err != nil {
		t.Fatal(err)
	}
	comp, ok := rep.Find("BenchmarkCompressedExecution")
	if !ok || len(rep.Benchmarks) != 2 {
		t.Fatalf("benchmarks = %+v", rep.Benchmarks)
	}
	if got := comp.Metrics["compressed_vs_native_ratio"]; got != 1.1 {
		t.Errorf("compressed_vs_native_ratio = %v, want 1.1", got)
	}
	if err := runRecord(strings.NewReader("PASS\n"), &out); err == nil {
		t.Error("-record accepted input without benchmark lines")
	}
}

// TestAppendLedger: -append stamps each report with the caller's commit
// and time, the report's CPU and the toolchain's Go version.
func TestAppendLedger(t *testing.T) {
	dir := t.TempDir()
	ledger := filepath.Join(dir, "ledger.jsonl")
	for i, r := range []struct {
		commit, ts string
		ns         []float64
	}{
		{"aaaaaaa1111", "2026-08-01T10:00:00Z", []float64{1300, 1310, 1305}},
		{"bbbbbbb2222", "2026-08-02T10:00:00Z", []float64{1295, 1305, 1300}},
		{"ccccccc3333", "2026-08-03T10:00:00Z", []float64{780, 785, 782}},
	} {
		rep := writeReport(t, dir, "bench.json", r.ns, nil)
		if err := runAppend(ledger, rep, r.commit, r.ts); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	entries, err := perfhist.Load(ledger)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 3 {
		t.Fatalf("ledger holds %d entries, want 3", len(entries))
	}
	// CPU taken from the report header, Go version from the toolchain;
	// the options fingerprint stays empty.
	if e := entries[0]; e.CPU != "Test CPU" || e.GoVersion != runtime.Version() || e.OptionsHash != "" {
		t.Fatalf("identity: %+v", e)
	}
	if e := entries[2]; e.Commit != "ccccccc3333" || e.Timestamp != "2026-08-03T10:00:00Z" {
		t.Fatalf("identity: %+v", e)
	}
}

func TestAppendRequiresIdentity(t *testing.T) {
	dir := t.TempDir()
	ledger := filepath.Join(dir, "ledger.jsonl")
	rep := writeReport(t, dir, "bench.json", []float64{100}, nil)
	if err := runAppend(ledger, rep, "", "2026-08-01T10:00:00Z"); err == nil {
		t.Error("append without -commit accepted")
	}
	if err := runAppend(ledger, rep, "abc", ""); err == nil {
		t.Error("append without -time accepted")
	}
	if err := runAppend(ledger, rep, "abc", "not-a-time"); err == nil {
		t.Error("append with junk -time accepted")
	}
}
