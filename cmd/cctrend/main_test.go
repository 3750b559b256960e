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

// writeReport drops a minimal BENCH_*.json with the given ns/op samples.
func writeReport(t *testing.T, dir, name string, ns []float64) string {
	t.Helper()
	b := benchfmt.Benchmark{Name: "BenchmarkCompressedExecution",
		NsPerOp: benchfmt.NewDist(ns).Mean}
	if len(ns) > 1 {
		b.Samples = map[string][]float64{benchfmt.MetricNs: ns}
	}
	rep := benchfmt.Report{Goos: "linux", CPU: "Test CPU",
		Benchmarks: []benchfmt.Benchmark{b}}
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

func TestAppendThenRender(t *testing.T) {
	dir := t.TempDir()
	ledger := filepath.Join(dir, "ledger.jsonl")

	runs := []struct {
		commit, ts string
		ns         []float64
	}{
		{"aaaaaaa1111", "2026-08-01T10:00:00Z", []float64{1300, 1310, 1305}},
		{"bbbbbbb2222", "2026-08-02T10:00:00Z", []float64{1295, 1305, 1300}},
		{"ccccccc3333", "2026-08-03T10:00:00Z", []float64{780, 785, 782}},
	}
	for i, r := range runs {
		rep := writeReport(t, dir, "bench.json", r.ns)
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
	if entries[0].CPU != "Test CPU" || entries[0].GoVersion != runtime.Version() || entries[0].OptionsHash != "" {
		t.Fatalf("identity: %+v", entries[0])
	}

	html := filepath.Join(dir, "trend.html")
	if err := runRender(ledger, html, false); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(html)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"perf trend: 3 ledger entries", "<svg", "#e34948"} {
		if !strings.Contains(string(got), want) {
			t.Errorf("trend HTML missing %q", want)
		}
	}

	// Text render of the same ledger is deterministic across calls.
	txt1 := filepath.Join(dir, "a.txt")
	txt2 := filepath.Join(dir, "b.txt")
	if err := runRender(ledger, txt1, true); err != nil {
		t.Fatal(err)
	}
	if err := runRender(ledger, txt2, true); err != nil {
		t.Fatal(err)
	}
	b1, _ := os.ReadFile(txt1)
	b2, _ := os.ReadFile(txt2)
	if string(b1) != string(b2) {
		t.Error("text renders differ")
	}
	if !strings.Contains(string(b1), "@ccccccc") {
		t.Errorf("text render does not flag the changepoint commit:\n%s", b1)
	}
}

func TestAppendRequiresIdentity(t *testing.T) {
	dir := t.TempDir()
	ledger := filepath.Join(dir, "ledger.jsonl")
	rep := writeReport(t, dir, "bench.json", []float64{100})
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
