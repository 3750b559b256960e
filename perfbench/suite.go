package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/csv"
	"encoding/hex"
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	codedensity "repro"
	"repro/internal/core"
	"repro/internal/synth"
	"repro/internal/trace"
)

// suiteParallel is the engine width the suite runs at: the 2-core
// reference machine's nproc, as in the north-star measurement.
const suiteParallel = 2

// suiteDigests pins each deterministic experiment's rendered table: one
// "id sha256" line per experiment, in paper order. Regenerate with
// go test -run TestSuiteDigests -update.
//
//go:embed suite.digests
var suiteDigests string

// runSuite times codedensity.RunExperiments over the deterministic
// experiment set on the paper's fixed corpus. The seed does not apply:
// re-seeding would change the paper's tables. Set-up generates the paper's
// eight programs and compresses each under the two headline encodings,
// the independent reference for the suite's sizeaudit table and the
// workload's size_ratio.
func runSuite(b *bench) error {
	want, err := parseDigests(suiteDigests)
	if err != nil {
		return err
	}
	b.phaseAccounting = true
	b.scalePass = true
	b.slots = suiteParallel
	for round := 0; b.more(round); round++ {
		var ratios map[string]float64
		err := b.setup(func() (err error) {
			ratios, err = suiteReference()
			return err
		})
		if err != nil {
			return err
		}
		if round == 0 {
			keys := make([]string, 0, len(ratios))
			for k := range ratios {
				keys = append(keys, k)
			}
			sort.Strings(keys) // a fixed summation order keeps size_ratio bit-identical
			for _, k := range keys {
				b.ratios = append(b.ratios, ratios[k])
			}
		}

		var results []codedensity.ExperimentResult
		var runErr error
		traced := false
		b.pass(round, func(sp *trace.Span) {
			traced = sp != nil
			r := sp.Child("codedensity.RunExperiments")
			t := time.Now()
			results, runErr = codedensity.RunExperiments(context.Background(), nil, codedensity.EngineOptions{Parallel: suiteParallel})
			if traced {
				basis := suiteParallel * ms(time.Since(t))
				b.add("_basis_ms", basis)
				b.add("self_ms.unaccounted", basis)
			}
			r.End()
		})
		if results == nil {
			return runErr
		}
		b.checkSuite(results, want, ratios)
		for _, res := range results {
			if traced {
				b.addExperiment(res)
			} else {
				b.ops = append(b.ops, ms(res.Wall))
			}
		}
	}
	return nil
}

// checkSuite counts one checked operation per experiment (no error, table
// digest as pinned) and one for the sizeaudit table against the set-up's
// own compressions.
func (b *bench) checkSuite(results []codedensity.ExperimentResult, want map[string]string, ratios map[string]float64) {
	seen := map[string]bool{}
	var audit string
	for _, res := range results {
		seen[res.ID] = true
		err := res.Err
		if err == nil {
			if got := digest(res.Text); got != want[res.ID] {
				err = fmt.Errorf("table digest %.12s…, pinned %.12s…", got, want[res.ID])
			}
		}
		if err != nil {
			err = fmt.Errorf("experiment %s: %w", res.ID, err)
		}
		b.op(err)
		if res.ID == "sizeaudit" {
			audit = res.CSV
		}
	}
	for id := range want {
		if !seen[id] {
			b.op(fmt.Errorf("experiment %s: pinned but not run", id))
		}
	}
	b.op(checkAuditRatios(audit, ratios))
}

// checkAuditRatios compares the sizeaudit table's ratio column with the
// reference compressions, keyed "bench/encoding".
func checkAuditRatios(table string, ratios map[string]float64) error {
	r := csv.NewReader(strings.NewReader(table))
	r.Comment = '#'
	r.FieldsPerRecord = -1
	rows, err := r.ReadAll()
	if err != nil {
		return fmt.Errorf("sizeaudit table: %w", err)
	}
	found := 0
	for _, row := range rows {
		if len(row) < 4 {
			continue
		}
		want, ok := ratios[row[0]+"/"+row[1]]
		if !ok {
			continue
		}
		found++
		if got := fmt.Sprintf("%.3f", want); row[3] != got {
			return fmt.Errorf("sizeaudit %s/%s ratio %s, direct compression gives %s", row[0], row[1], row[3], got)
		}
	}
	if found != len(ratios) {
		return fmt.Errorf("sizeaudit table has %d of the %d reference rows", found, len(ratios))
	}
	return nil
}

// suiteReference compresses the paper's eight programs under each scheme
// and returns the ratios keyed "bench/encoding".
func suiteReference() (map[string]float64, error) {
	out := map[string]float64{}
	for _, name := range synth.BenchmarkNames() {
		p, err := synth.Generate(name)
		if err != nil {
			return nil, err
		}
		for _, scheme := range schemes {
			img, err := core.Compress(p.Clone(), core.Options{Scheme: scheme})
			if err != nil {
				return nil, fmt.Errorf("compressing %s: %w", name, err)
			}
			out[name+"/"+scheme.String()] = img.Ratio()
		}
	}
	return out, nil
}

// addExperiment accumulates one traced experiment's stats. The engine
// runs experiments and their rows on suiteParallel worker slots, so the
// layers' self times are accounted over slot time: dictionary builds,
// the rest of the compression pipeline, and program generation come from
// the program's own phase timers; the experiment's wall time beyond them
// is the bench layer; the slot time left over is unaccounted.
//
// An experiment holds one slot for its wall time, and its rows may borrow
// the other slot while it is idle, so its phase times can exceed its wall
// time. Its bench time is then 0, and it takes max(wall, phases) of slot
// time, which is never more than the slot time it held plus the slot time
// it borrowed.
func (b *bench) addExperiment(res codedensity.ExperimentResult) {
	st := res.Stats
	phase := func(name string) float64 { return float64(st.Phases[name].Nanos) / 1e6 }
	build, analyze := phase("core.build"), phase("core.analyze")
	rest := analyze + phase("core.encode") + phase("core.patch")
	gen := phase("corpus.generate")
	wall := ms(res.Wall)

	b.add("bench.experiment_s."+res.ID, res.Wall.Seconds())
	b.add("dictionary.build_ms", build)
	b.add("dictionary.builds", float64(st.Phases["core.build"].Count))
	b.add("core.markers_ms", analyze)
	b.add("core.compress_ms", build+rest)
	for _, c := range dictCounters {
		b.add(c, float64(st.Counters[c]))
	}
	b.add("machine.steps", float64(st.Counters["machine.steps"]))
	b.add("_fast.steps", float64(st.Counters["machine.fastpath.steps"]))
	for _, r := range bailNames() {
		name := "machine.fastpath.bail." + r
		b.add(name, float64(st.Counters[name]))
	}
	b.add("cache.misses", float64(st.Counters["cache.misses"]))
	b.add("_cache.accesses", float64(st.Counters["cache.accesses"]))
	b.add("corpus.compressions", float64(st.Counters["corpus.compressions"]))

	b.add("self_ms.synth", gen)
	b.add("self_ms.dictionary", build)
	b.add("self_ms.core", rest)
	own := math.Max(0, wall-gen-build-rest)
	b.add("self_ms.bench", own)
	b.add("self_ms.unaccounted", -(gen + build + rest + own))
}

func digest(text string) string {
	sum := sha256.Sum256([]byte(text))
	return hex.EncodeToString(sum[:])
}

func parseDigests(text string) (map[string]string, error) {
	out := map[string]string{}
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 0 {
			continue
		}
		if len(f) != 2 {
			return nil, fmt.Errorf("suite.digests: malformed line %q", sc.Text())
		}
		out[f[0]] = f[1]
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("suite.digests is empty")
	}
	return out, sc.Err()
}
