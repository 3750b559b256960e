package obs

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/guestprof"
	"repro/internal/sizeaudit"
	"repro/internal/stats"
)

var update = flag.Bool("update", false, "rewrite the golden report files")

// testBundleNew is the "after" side for diff tests: same shape as
// testBundle with moved numbers, a function and a bail reason only it
// has, and a counter the old side lacks.
func testBundleNew() *Bundle {
	rec := stats.New()
	rec.Add("machine.steps", 1400)
	rec.Add("machine.expanded", 90)
	rec.Add("machine.fetched_bytes", 2100)
	rec.Observe("machine.expansion_len", 3)
	snap := rec.Snapshot()

	em := sizeaudit.NewEmitter([]sizeaudit.Func{
		{Name: "main", Start: 0},
		{Name: "helper", Start: 64},
	}, 128)
	em.AtWord(sizeaudit.Codeword, 0, 20)
	em.AtWord(sizeaudit.Raw, 1, 64)
	em.Global(sizeaudit.Table, sizeaudit.LATRow, 40)
	em.Global(sizeaudit.Header, sizeaudit.HeaderRow, 36)
	audit := em.Finish("demo", "ccrp", 20, 128)

	return &Bundle{
		Identity: Identity{
			Bench:     "demo",
			Codec:     "ccrp",
			Method:    4,
			GoVersion: "go1.24.0",
			Timestamp: "2026-08-08T01:00:00Z",
		},
		Stats: &snap,
		Profile: &core.RunProfile{
			Name:         "demo",
			Steps:        1400,
			Expanded:     90,
			MemFetches:   1200,
			FetchedBytes: 2100,
			Fastpath: core.FastPathProfile{
				Steps:     1390,
				SlowSteps: 10,
				Coverage:  0.9929,
				Bails:     map[string]int64{"exit": 1, "budget": 3},
			},
		},
		Guest: &guestprof.Profile{
			Name:  "demo",
			Total: guestprof.Counts{Cycles: 1400, FetchBytes: 2100},
			Funcs: []guestprof.FuncProfile{
				{Name: "main", Flat: guestprof.Counts{Cycles: 900, FetchBytes: 1500},
					Cum: guestprof.Counts{Cycles: 1400, FetchBytes: 2100}},
				{Name: "helper2", Flat: guestprof.Counts{Cycles: 500, FetchBytes: 600},
					Cum: guestprof.Counts{Cycles: 500, FetchBytes: 600}},
			},
		},
		Audit: audit,
	}
}

func checkGolden(t *testing.T, name string, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/obs -update` to create goldens)", err)
	}
	if got != string(want) {
		t.Errorf("%s drifted from golden; rerun with -update if intended\n got: %q\nwant: %q",
			name, got, string(want))
	}
}

func TestBundleReportGolden(t *testing.T) {
	r := BundleReport(testBundle())
	var html, text strings.Builder
	if err := r.WriteHTML(&html); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "bundle.html", html.String())
	checkGolden(t, "bundle.txt", text.String())
}

func TestDiffReportGolden(t *testing.T) {
	d := NewDiff(testBundle(), testBundleNew())
	r := DiffReport(d)
	var html, text strings.Builder
	if err := r.WriteHTML(&html); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "diff.html", html.String())
	checkGolden(t, "diff.txt", text.String())
}

func TestDiffSemantics(t *testing.T) {
	old, new := testBundle(), testBundleNew()
	d := NewDiff(old, new)

	if d.Exec == nil || d.Exec.OldSteps != 1000 || d.Exec.NewSteps != 1400 {
		t.Fatalf("exec delta = %+v", d.Exec)
	}
	if d.Size == nil || d.Size.OldBytes != int64(old.Audit.TotalBytes) || d.Size.NewBytes != 20 {
		t.Fatalf("size delta = %+v", d.Size)
	}

	// Metrics: only names on both sides get deltas; one-sided names are
	// listed, not silently dropped.
	byMetric := map[string]bool{}
	for _, m := range d.Metrics {
		byMetric[m.Metric] = true
	}
	if !byMetric["machine.steps"] || !byMetric["machine.expanded"] {
		t.Errorf("shared counters missing from metric deltas: %v", d.Metrics)
	}
	foundNewOnly := false
	for _, n := range d.MetricsNewOnly {
		if n == "machine.fetched_bytes" {
			foundNewOnly = true
		}
	}
	if !foundNewOnly {
		t.Errorf("machine.fetched_bytes should be new-only, got %v", d.MetricsNewOnly)
	}
	foundOldOnly := false
	for _, n := range d.MetricsOldOnly {
		if n == "core.compress.ms" {
			foundOldOnly = true
		}
	}
	if !foundOldOnly {
		t.Errorf("core.compress.ms should be old-only, got %v", d.MetricsOldOnly)
	}

	// Guest functions: union of both sides, absent side counted zero,
	// ordered by |delta cycles| descending.
	funcs := map[string]FuncDelta{}
	for _, f := range d.Funcs {
		funcs[f.Name] = f
	}
	if f := funcs["helper"]; f.OldCycles != 300 || f.NewCycles != 0 {
		t.Errorf("helper delta = %+v", f)
	}
	if f := funcs["helper2"]; f.OldCycles != 0 || f.NewCycles != 500 {
		t.Errorf("helper2 delta = %+v", f)
	}
	for i := 1; i < len(d.Funcs); i++ {
		di := abs64(d.Funcs[i-1].NewCycles - d.Funcs[i-1].OldCycles)
		dj := abs64(d.Funcs[i].NewCycles - d.Funcs[i].OldCycles)
		if di < dj {
			t.Errorf("func deltas not ordered by |delta|: %v before %v", d.Funcs[i-1], d.Funcs[i])
		}
	}

	// Bails: union of reasons across both profiles.
	bails := map[string][2]float64{}
	for _, b := range d.Bails {
		bails[b.Metric] = [2]float64{b.Old, b.New}
	}
	if got := bails["hook_attached"]; got != [2]float64{2, 0} {
		t.Errorf("hook_attached bail delta = %v", got)
	}
	if got := bails["budget"]; got != [2]float64{0, 3} {
		t.Errorf("budget bail delta = %v", got)
	}

	// Classes: every provenance class with bits on either side appears.
	classes := map[string][2]int64{}
	for _, cl := range d.Classes {
		classes[cl.Class] = [2]int64{cl.OldBits, cl.NewBits}
	}
	if got := classes["dictionary"]; got[0] == 0 || got[1] != 0 {
		t.Errorf("dictionary class delta = %v", got)
	}
	if got := classes["table"]; got[0] != 0 || got[1] != 40 {
		t.Errorf("table class delta = %v", got)
	}
}

// TestAuditReports renders the two size-audit reports ccomp prints: every
// function with its exact per-class bytes, and a two-sided comparison
// where a side lacking a function shows "-".
func TestAuditReports(t *testing.T) {
	funcs := []sizeaudit.Func{{Name: "alpha", Start: 0}, {Name: "beta", Start: 16}, {Name: "gamma", Start: 40}}
	emA := sizeaudit.NewEmitter(funcs, 64)
	emA.At(sizeaudit.Raw, 0, 320)
	emA.At(sizeaudit.Raw, 16, 160)
	a := emA.Finish("bench", "native", 60, 60)
	emB := sizeaudit.NewEmitter(funcs, 64)
	emB.At(sizeaudit.Codeword, 0, 13) // deliberately non-byte-aligned
	emB.At(sizeaudit.Codeword, 40, 80)
	emB.Global(sizeaudit.Dict, sizeaudit.DictRow, 227)
	b := emB.Finish("bench", "nibble", 40, 60)

	var text strings.Builder
	if err := AuditReport(b).WriteText(&text); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"size audit: bench (nibble)", "40 bytes of 60 original",
		"alpha", "gamma", sizeaudit.DictRow, "TOTAL", "1.625"} { // 13 bits = 1.625 bytes, exactly
		if !strings.Contains(text.String(), want) {
			t.Fatalf("audit report missing %q:\n%s", want, text.String())
		}
	}

	text.Reset()
	if err := AuditDiffReport(sizeaudit.Diff(a, b)).WriteText(&text); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"A: bench (native), 60 bytes", "B: bench (nibble), 40 bytes",
		"alpha", "beta", "gamma", sizeaudit.DictRow, "TOTAL", "-38.375", "-20"} {
		if !strings.Contains(text.String(), want) {
			t.Fatalf("diff report missing %q:\n%s", want, text.String())
		}
	}
}

func TestFmtBitsAsBytesExact(t *testing.T) {
	cases := map[int64]string{0: "0", 8: "1", 16: "2", 4: "0.5", 13: "1.625", 12345 * 8: "12345"}
	for bits, want := range cases {
		if got := fmtBitsAsBytes(bits); got != want {
			t.Errorf("fmtBitsAsBytes(%d) = %q, want %q", bits, got, want)
		}
	}
}
