package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"

	codedensity "repro"
	"repro/internal/codeword"
)

var update = flag.Bool("update", false, "rewrite suite.digests and BENCHMARK.json from the current code")

// TestSuiteDigests checks the pinned table digests against a fresh run of
// the suite; -update rewrites them.
func TestSuiteDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole experiment suite")
	}
	results, err := codedensity.RunExperiments(context.Background(), nil, codedensity.EngineOptions{Parallel: suiteParallel})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	for _, r := range results {
		fmt.Fprintf(&sb, "%s %s\n", r.ID, digest(r.Text))
	}
	if *update {
		if err := os.WriteFile("suite.digests", []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if sb.String() != suiteDigests {
		t.Errorf("suite.digests is stale; got\n%s", sb.String())
	}
}

// benchmarkJSON renders the repository's BENCHMARK.json from the
// catalogue: how the benchmark is run, its workloads and their
// rationale, and every metric with its unit and better direction.
func benchmarkJSON() ([]byte, error) {
	type workloadJSON struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type endToEndJSON struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type perLayerJSON struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []workloadJSON `json:"workloads"`
		EndToEnd   []endToEndJSON `json:"end_to_end"`
		PerLayer   []perLayerJSON `json:"per_layer"`
	}{
		Command:    []string{"bash", "perfbench/run.sh"},
		Paths:      []string{"perfbench"},
		RunSeconds: 30,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, workloadJSON{w.name, w.why})
	}
	for _, m := range endToEndMetrics {
		doc.EndToEnd = append(doc.EndToEnd, endToEndJSON{m.name, m.unit, m.better, m.bound})
	}
	for _, m := range perLayerMetrics() {
		doc.PerLayer = append(doc.PerLayer, perLayerJSON{m.name, m.unit, m.better})
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	return append(out, '\n'), err
}

// TestBenchmarkJSON checks BENCHMARK.json against the catalogue and the
// format's limits; -update rewrites it.
func TestBenchmarkJSON(t *testing.T) {
	want, err := benchmarkJSON()
	if err != nil {
		t.Fatal(err)
	}
	if *update {
		if err := os.WriteFile("../BENCHMARK.json", want, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("BENCHMARK.json is stale; regenerate with go test -run TestBenchmarkJSON -update")
	}
	if len(got) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes", len(got))
	}

	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(n string) {
		if !nameRE.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	for _, w := range workloads {
		checkName(w.name)
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why is not one line of at most 200 characters", w.name)
		}
	}
	layer := perLayerMetrics()
	if len(layer) > 128 {
		t.Errorf("%d per-layer metrics", len(layer))
	}
	maxBound := 0.0
	for _, m := range append(append([]metricDef(nil), endToEndMetrics...), layer...) {
		checkName(m.name)
		if !unitRE.MatchString(m.unit) || (m.better != "lower" && m.better != "higher") {
			t.Errorf("%s: unit %q or direction %q malformed", m.name, m.unit, m.better)
		}
		maxBound = math.Max(maxBound, m.bound)
	}
	for _, m := range endToEndMetrics {
		if m.bound <= 0 || m.bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.name, m.bound)
		}
		if m.name == "setup_s" && m.bound != maxBound {
			t.Errorf("setup_s bound %v is not the largest (%v)", m.bound, maxBound)
		}
	}
}

// TestFailuresAreCounted injects a wrong reference and a corrupted image
// into the deploy path, and a wrong reference into an exec request, and
// asserts that each is counted as a failure.
func TestFailuresAreCounted(t *testing.T) {
	subjects, err := generate(1, 0, 1, execScale)
	if err != nil {
		t.Fatal(err)
	}
	s := subjects[0]
	b := newBench(config{workload: "deploy", seconds: 1}, &bytes.Buffer{})

	_, ppz, err := compressAndWrite(s.prog, codeword.Nibble, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	d, err := openAndRun(s.prog, ppz, nil)
	if err != nil {
		t.Fatal(err)
	}
	b.op(d.check(s.ref, ppz))
	if b.failed != 0 {
		t.Fatalf("a correct deployment counted as failed")
	}

	wrong := s.ref
	wrong.out = append([]byte("not the native output"), wrong.out...)
	b.op(d.check(wrong, ppz))

	corrupt := append([]byte(nil), ppz...)
	corrupt[len(corrupt)/2] ^= 0x5A
	d, err = openAndRun(s.prog, corrupt, nil)
	if err == nil {
		err = d.check(s.ref, corrupt)
	}
	b.op(err)
	b.op(func() error { _, err := openAndRun(s.prog, ppz[:len(ppz)-3], nil); return err }())

	pairs, err := b.execSetup(0)
	if err != nil {
		t.Fatal(err)
	}
	p := pairs[0]
	p.ref = wrong
	b.request(p, map[string]float64{}, nil)

	if b.failed != 4 || b.attempted != 5 {
		t.Errorf("failed %d of %d, want 4 of 5", b.failed, b.attempted)
	}
}

// TestSeedsChangeProgramsNotMetrics runs the exec workload briefly under
// two seeds: the programs differ, the reported metric names do not.
func TestSeedsChangeProgramsNotMetrics(t *testing.T) {
	a, err := generate(1, 0, 1, execScale)
	if err != nil {
		t.Fatal(err)
	}
	c, err := generate(2, 0, 1, execScale)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if reflect.DeepEqual(a[i].prog.Text, c[i].prog.Text) {
			t.Errorf("%s: seeds 1 and 2 generate the same program", a[i].profile)
		}
	}

	for _, tr := range []string{"0", "1"} {
		var names [][]string
		for _, seed := range []string{"1", "2"} {
			var out, errOut bytes.Buffer
			code := run([]string{"--workload", "exec", "--seed", seed, "--seconds", "0.2", "--trace", tr}, &out, &errOut)
			if code != 0 {
				t.Fatalf("seed %s trace %s: exit %d: %s", seed, tr, code, errOut.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("seed %s: correct %v, %d failed of %d", seed, res.Correct, res.Failed, res.Attempted)
			}
			var ns []string
			for n, m := range res.Metrics {
				ns = append(ns, n)
				if m.Unit == "" {
					t.Errorf("%s has no unit", n)
				}
			}
			sort.Strings(ns)
			names = append(names, ns)
		}
		if !reflect.DeepEqual(names[0], names[1]) {
			t.Errorf("trace %s: metric names differ between seeds:\n%v\n%v", tr, names[0], names[1])
		}
	}
}

func TestTrimmedMean(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{4, 1, 2, 3}, 2.5},         // under five values nothing is trimmed
		{[]float64{100, 2, 3, 4, 0}, 3},      // one of five from each end
		{[]float64{9, 4, 5, 5, 5, 6, -9}, 5}, // one of seven from each end
	} {
		if got := trimmedMean(c.in); got != c.want {
			t.Errorf("trimmedMean(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}
