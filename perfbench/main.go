// Command perfbench is the repository's end-to-end benchmark. It runs one
// named workload for a fixed time, checks every output against an
// independent reference, and prints the workload's metrics as one JSON
// object on the last line of its standard output.
//
// Run it through run.sh from the repository root, which builds it from the
// checkout's sources first:
//
//	bash perfbench/run.sh --workload deploy --seed 7 --seconds 30 --trace 0
//
// --trace 0 reports the end-to-end metrics, measured with tracing off.
// --trace 1 alternates traced and untraced passes and reports the
// per-layer metrics instead: span self times and shares per layer, the
// counters the program already exposes, and the tracing overhead. The
// metric catalogue, the layer-to-end-to-end mapping and a first record of
// where the time goes are in METRICS.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"repro/internal/trace"
)

// maxSteps bounds every simulated run; the generated programs finish in
// well under a million steps, so hitting it is a failure.
const maxSteps = 1 << 26

// minOps is the least number of timed operations a run collects, so that
// at least ten samples lie beyond the reported p90.
const minOps = 100

// workload is one named set of inputs the benchmark runs.
type workload struct {
	name string
	why  string
	run  func(*bench) error
}

var workloads = []workload{
	{"suite", "the paper's experiment suite on its fixed eight-program corpus; ~85% of it is repeated dictionary builds", runSuite},
	{"deploy", "ccgen-ccomp-ccrun cold, once per distinct seeded program: compress, serialize, open, verify, predecode, run", runDeploy},
	{"exec", "warm Reset+Run of reopened images: bare compressed, native and 1 KB I-cache modes; no compression is timed", runExec},
}

func findWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// config is one run's command line.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
}

// bench accumulates one run's measurements. Workloads time their rounds
// through setup and pass, count checked operations with op, and
// accumulate traced quantities with add; finish turns the samples into
// the reported metrics.
type bench struct {
	cfg   config
	start time.Time
	log   io.Writer // progress and failure details (stderr)

	setups    []float64   // CPU seconds per set-up
	passes    [][]float64 // CPU seconds per untraced pass, grouped by round
	passWalls []float64   // wall seconds per untraced pass
	ops       []float64   // wall milliseconds per timed operation (untraced passes)
	ratios    []float64   // compressed ÷ original bytes per image
	peaks     []float64   // peak resident MB over each round's passes
	refs      []float64   // CPU seconds of the reference kernel, refPerRound per round
	rawPass   float64     // pass CPU seconds before host-speed scaling
	// scalePass is set by workloads whose passes are memory-bound like
	// the reference kernel; set-ups, which all compress, are always scaled.
	scalePass bool
	rss       *rssSampler // samples the current round's passes

	attempted, failed int64

	// report holds extra end-to-end figures printed (not gated) beside
	// the JSON result, e.g. the ISSUE-specific rates of one workload.
	report []string

	// Traced mode.
	npass           int // passes started so far
	tracer          *trace.Tracer
	traced          []float64          // CPU seconds per traced pass
	tracedWalls     []float64          // wall seconds per traced pass
	layer           map[string]float64 // per-layer sums over traced passes
	first           map[string]float64 // layer as the first traced pass left it
	phaseAccounting bool               // self times come from the program's phase timers, not spans
	slots           int                // worker slots the accounting basis spans (0: one)
}

func newBench(cfg config, log io.Writer) *bench {
	b := &bench{cfg: cfg, start: time.Now(), log: log, layer: map[string]float64{}}
	if cfg.trace {
		b.tracer = trace.New()
	}
	return b
}

// more reports whether another round should start: until the run's time
// is used up and, when the run reports latency percentiles (untraced),
// enough operations were timed.
func (b *bench) more(round int) bool {
	return round < 2 || time.Since(b.start).Seconds() < b.cfg.seconds || (!b.cfg.trace && len(b.ops) < minOps)
}

// tracedPass reports whether pass number i (counting from 0 over the
// whole run) is traced: in traced mode every other pass, so the
// untraced ones measure the tracing overhead.
func (b *bench) tracedPass(i int) bool { return b.cfg.trace && i%2 == 0 }

// refPerRound is how many times each round times the reference kernel.
const refPerRound = 2

// setup runs and times one set-up. It ends the previous round's memory
// sampling and collects that round's garbage first, so neither its
// collection nor its memory lands in the new round. Afterwards it times
// the reference kernel, returns the set-up's garbage to the OS and starts
// sampling the round's passes.
func (b *bench) setup(fn func() error) error {
	b.endRound()
	runtime.GC()
	c0 := cpuTime()
	err := fn()
	b.setups = append(b.setups, (cpuTime() - c0).Seconds())
	if err != nil {
		return err
	}
	for i := 0; i < refPerRound; i++ {
		d, err := referenceKernel()
		if err != nil {
			return fmt.Errorf("reference kernel: %w", err)
		}
		b.refs = append(b.refs, d.Seconds())
	}
	debug.FreeOSMemory()
	b.rss = startRSS()
	return nil
}

// endRound records the peak resident set size of the round's passes.
func (b *bench) endRound() {
	if b.rss != nil {
		b.peaks = append(b.peaks, b.rss.peakMB())
		b.rss = nil
	}
}

// pass runs and times one pass over the workload's batch. In traced mode
// every other pass is traced: it gets a root span, which fn passes on to
// the spans it opens around each call into the program, and the Go
// runtime's allocation and GC activity during it is recorded.
func (b *bench) pass(round int, fn func(sp *trace.Span)) {
	traced := b.tracedPass(b.npass)
	if traced && b.npass > 0 && b.first == nil {
		b.first = maps.Clone(b.layer) // everything the first traced pass added
	}
	b.npass++
	var sp *trace.Span
	var m0 runtime.MemStats
	if traced {
		runtime.ReadMemStats(&m0)
		sp = b.tracer.Root("pass")
	}
	t0, c0 := time.Now(), cpuTime()
	fn(sp)
	cpu, wall := (cpuTime() - c0).Seconds(), time.Since(t0).Seconds()
	sp.End()
	if traced {
		var m1 runtime.MemStats
		runtime.ReadMemStats(&m1)
		b.add("runtime.alloc_mb", float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20))
		b.add("runtime.gc_cycles", float64(m1.NumGC-m0.NumGC))
		b.add("runtime.gc_pause_ms", float64(m1.PauseTotalNs-m0.PauseTotalNs)/1e6)
		b.traced = append(b.traced, cpu)
		b.tracedWalls = append(b.tracedWalls, wall)
		return
	}
	for len(b.passes) <= round {
		b.passes = append(b.passes, nil)
	}
	b.passes[round] = append(b.passes[round], cpu)
	b.passWalls = append(b.passWalls, wall)
}

// op counts one checked operation; a non-nil err is a failure.
func (b *bench) op(err error) {
	b.attempted++
	if err != nil {
		b.failed++
		if b.failed <= 10 {
			fmt.Fprintf(b.log, "perfbench: FAIL: %v\n", err)
		}
	}
}

// add accumulates a per-layer quantity over traced passes.
func (b *bench) add(name string, v float64) { b.layer[name] += v }

func (b *bench) reportf(format string, args ...any) {
	b.report = append(b.report, fmt.Sprintf(format, args...))
}

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// endToEnd computes every end-to-end metric from the untraced samples.
func (b *bench) endToEnd() (map[string]float64, error) {
	b.endRound()
	if len(b.setups) == 0 || len(b.passes) == 0 || len(b.ops) == 0 || len(b.ratios) == 0 {
		return nil, errors.New("no samples: the run measured nothing")
	}
	var roundCPU []float64
	for _, r := range b.passes {
		if len(r) > 0 {
			roundCPU = append(roundCPU, median(r))
		}
	}
	// Host-speed scaling: CPU seconds at the reference kernel's nominal
	// speed (see referenceKernel).
	scale := referenceNominal / median(b.refs)
	passScale := 1.0
	if b.scalePass {
		passScale = scale
	}
	b.rawPass = trimmedMean(roundCPU)
	b.reportf("unscaled CPU: setup %.6g s, pass %.6g s; reference kernel %.6g s (median of %d), scale %.4f (pass scaled: %v)",
		trimmedMean(b.setups), b.rawPass, median(b.refs), len(b.refs), scale, b.scalePass)
	return map[string]float64{
		"setup_s":     trimmedMean(b.setups) * scale,
		"pass_cpu_s":  b.rawPass * passScale,
		"peak_rss_mb": trimmedMean(b.peaks),
		"size_ratio":  geomean(b.ratios),
	}, nil
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its streams and exit code explicit, for tests.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: suite, deploy or exec")
	seed := fs.Int64("seed", 1, "workload seed (deploy and exec re-seed their programs from it; suite is fixed)")
	seconds := fs.Float64("seconds", 30, "how long to measure")
	traceFlag := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := findWorkload(*name)
	if err != nil || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		if err == nil {
			err = errors.New("--seconds must be positive and --trace 0 or 1")
		}
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	cfg := config{workload: w.name, seed: *seed, seconds: *seconds, trace: *traceFlag == 1}

	b := newBench(cfg, stderr)
	if err := w.run(b); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	metrics, err := b.finish()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}

	env, _ := json.Marshal(environment(cfg)) // a map of strings and numbers always marshals
	fmt.Fprintf(stdout, "env %s\n", env)
	for _, line := range b.report {
		fmt.Fprintln(stdout, line)
	}
	res := result{
		Correct:   b.failed == 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   metrics,
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", out)
	if !res.Correct {
		return 1
	}
	return 0
}

// finish computes the metrics the run reports: the end-to-end set, or in
// traced mode the per-layer set, each with its catalogue unit.
func (b *bench) finish() (map[string]metricValue, error) {
	e2e, err := b.endToEnd()
	if err != nil {
		return nil, err
	}
	b.reportf("%-22s %14s  %s", "end-to-end", "value", "unit")
	for _, m := range endToEndMetrics {
		b.reportf("%-22s %14.6g  %s", m.name, e2e[m.name], m.unit)
	}
	b.reportf("wall_s %.6g s (median untraced pass, wall clock)", median(b.passWalls))
	b.reportf("op_ms_p50 %.6g ms, op_ms_p90 %.6g ms (wall clock)", quantile(b.ops, 0.5), quantile(b.ops, 0.9))
	b.reportf("samples: %d set-ups, %d passes, %d timed operations (%d beyond p90), %d images",
		len(b.setups), countAll(b.passes), len(b.ops), len(b.ops)/10, len(b.ratios))
	var roundCPU []float64
	for _, r := range b.passes {
		roundCPU = append(roundCPU, median(r))
	}
	b.reportf("pass_cpu_s per round: %s", formatAll(roundCPU, "%.4g"))
	b.reportf("peak_rss_mb per round: %s", formatAll(b.peaks, "%.1f"))
	b.reportf("error_rate %.6g (%d failed of %d attempted)", safeDiv(float64(b.failed), float64(b.attempted)), b.failed, b.attempted)

	if !b.cfg.trace {
		return withUnits(e2e, endToEndMetrics), nil
	}
	layers, err := b.perLayer(median(b.traced), b.rawPass)
	if err != nil {
		return nil, err
	}
	if err := b.writeTrace(); err != nil {
		return nil, err
	}
	return withUnits(layers, perLayerMetrics()), nil
}

func withUnits(vals map[string]float64, defs []metricDef) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		out[d.name] = metricValue{Value: vals[d.name], Unit: d.unit}
	}
	return out
}

// writeTrace exports the traced run's spans as a Chrome trace-event file
// under .bench_build/ in the current directory.
func (b *bench) writeTrace() error {
	dir := ".bench_build/perfbench"
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := fmt.Sprintf("%s/trace-%s.json", dir, b.cfg.workload)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := b.tracer.WriteChrome(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	b.reportf("trace: %d spans written to %s", b.tracer.Len(), path)
	return nil
}

// environment is recorded beside every result.
func environment(cfg config) map[string]any {
	return map[string]any{
		"workload":   cfg.workload,
		"seed":       cfg.seed,
		"seconds":    cfg.seconds,
		"trace":      cfg.trace,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"cpu":        cpuModel(),
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func formatAll(xs []float64, format string) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf(format, x)
	}
	return strings.Join(parts, " ")
}

func countAll(groups [][]float64) int {
	n := 0
	for _, g := range groups {
		n += len(g)
	}
	return n
}
