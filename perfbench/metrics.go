package main

import (
	"strings"

	engine "repro/internal/bench"
	"repro/internal/machine"
)

// metricDef is one catalogue entry. BENCHMARK.json is generated from the
// catalogue (TestBenchmarkJSON).
type metricDef struct {
	name, unit, better string
	// bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	bound float64
}

// endToEndMetrics are reported by every workload with tracing off. Times
// are CPU times (see cpuTime); bounds are set from the seed-to-seed
// spread measured on a shared 2-vCPU host, whose neighbours slow
// memory-bound code by tens of percent for minutes at a time.
var endToEndMetrics = []metricDef{
	{"setup_s", "s", "lower", 0.25},        // CPU time of one set-up, trimmed mean over rounds
	{"pass_cpu_s", "s", "lower", 0.25},     // CPU time of one pass over a round's batch, trimmed mean over rounds
	{"peak_rss_mb", "MB", "lower", 0.2},    // peak resident set size over a round's passes, trimmed mean
	{"size_ratio", "ratio", "lower", 0.03}, // geometric mean of compressed ÷ original bytes
}

// layers are the modules the traced run accounts self time to, plus the
// benchmark's own checks and the remainder no span covers.
//
// The I-cache model has no layer of its own: it runs inside machine.Run as
// a fetch hook, so its time is part of the machine's self time (compare
// machine.icache_run_us with machine.run_us).
var layers = []string{"synth", "core", "dictionary", "objfile", "machine", "bench", "perfbench", "unaccounted"}

// layerOf maps a span name to its layer: core.build and the builder's own
// dict.* phases are the dictionary module; pass and request roots are the
// benchmark loop, whose self time is the unaccounted remainder.
func layerOf(span string) string {
	switch {
	case span == "pass" || span == "request":
		return "unaccounted"
	case span == "core.build" || strings.HasPrefix(span, "dict."):
		return "dictionary"
	}
	prefix, _, _ := strings.Cut(span, ".")
	return prefix
}

// spanMetrics names the per-layer time metrics that are the summed
// durations of one span name.
var spanMetrics = map[string]string{
	"core.Compress":      "core.compress_ms",
	"core.analyze":       "core.markers_ms",
	"core.build":         "dictionary.build_ms",
	"core.Verify":        "core.verify_ms",
	"core.Predecode":     "core.predecode_ms",
	"core.NewMachine":    "core.new_machine_ms",
	"objfile.WriteImage": "objfile.write_ms",
	"objfile.OpenImage":  "objfile.open_ms",
	"machine.Reset":      "machine.reset_ms",
}

// dictCounters are the dictionary builder's stats.Recorder counters the
// traced run reports per pass.
var dictCounters = []string{"dict.heap_pops", "dict.reevaluations", "dict.candidates", "dict.entries"}

// passCounters are the per-layer metrics that count the program's work
// in one pass: deterministic for a given seed, so the traced run reports
// them from its first traced pass.
func passCounters() []string {
	out := append([]string{"dictionary.builds", "machine.steps", "cache.misses", "corpus.compressions"}, dictCounters...)
	for _, r := range bailNames() {
		out = append(out, "machine.fastpath.bail."+r)
	}
	return out
}

func bailNames() []string {
	var out []string
	for r := range (machine.FastStats{}).Bails {
		out = append(out, machine.BailReason(r).String())
	}
	return out
}

func experimentIDs() []string {
	var out []string
	for _, r := range engine.Deterministic() {
		out = append(out, r.ID)
	}
	return out
}

// perLayerMetrics is the traced run's catalogue. Every workload reports
// every entry; a layer a workload does not exercise in its passes reads 0.
func perLayerMetrics() []metricDef {
	defs := []metricDef{
		{name: "dictionary.build_ms", unit: "ms", better: "lower"},
		{name: "dictionary.build_mbps", unit: "MB/s", better: "higher"},
		{name: "dictionary.builds", unit: "count", better: "lower"},
	}
	for _, c := range dictCounters {
		defs = append(defs, metricDef{name: c, unit: "count", better: "lower"})
	}
	defs = append(defs,
		metricDef{name: "dict.pop_yield", unit: "ratio", better: "higher"},
		metricDef{name: "core.markers_ms", unit: "ms", better: "lower"},
		metricDef{name: "core.compress_ms", unit: "ms", better: "lower"},
		metricDef{name: "core.assemble_ms", unit: "ms", better: "lower"},
		metricDef{name: "core.verify_ms", unit: "ms", better: "lower"},
		metricDef{name: "core.predecode_ms", unit: "ms", better: "lower"},
		metricDef{name: "core.new_machine_ms", unit: "ms", better: "lower"},
		metricDef{name: "objfile.write_ms", unit: "ms", better: "lower"},
		metricDef{name: "objfile.open_ms", unit: "ms", better: "lower"},
		metricDef{name: "objfile.ppz_bytes", unit: "bytes", better: "lower"},
		metricDef{name: "machine.reset_ms", unit: "ms", better: "lower"},
		metricDef{name: "machine.run_us", unit: "us", better: "lower"},
		metricDef{name: "machine.icache_run_us", unit: "us", better: "lower"},
		metricDef{name: "machine.native_run_us", unit: "us", better: "lower"},
		metricDef{name: "machine.mips", unit: "MIPS", better: "higher"},
		metricDef{name: "machine.icache_mips", unit: "MIPS", better: "higher"},
		metricDef{name: "machine.compressed_vs_native", unit: "ratio", better: "lower"},
		metricDef{name: "machine.steps", unit: "count", better: "lower"},
		metricDef{name: "machine.fastpath.coverage", unit: "ratio", better: "higher"},
	)
	for _, r := range bailNames() {
		defs = append(defs, metricDef{name: "machine.fastpath.bail." + r, unit: "count", better: "lower"})
	}
	defs = append(defs,
		metricDef{name: "cache.misses", unit: "count", better: "lower"},
		metricDef{name: "cache.miss_rate", unit: "ratio", better: "lower"},
	)
	for _, id := range experimentIDs() {
		defs = append(defs, metricDef{name: "bench.experiment_s." + id, unit: "s", better: "lower"})
	}
	defs = append(defs,
		metricDef{name: "corpus.compressions", unit: "count", better: "lower"},
		metricDef{name: "runtime.alloc_mb", unit: "MB", better: "lower"},
		metricDef{name: "runtime.gc_cycles", unit: "count", better: "lower"},
		metricDef{name: "runtime.gc_pause_ms", unit: "ms", better: "lower"},
	)
	for _, l := range layers {
		defs = append(defs, metricDef{name: "self_ms." + l, unit: "ms", better: "lower"})
	}
	for _, l := range layers {
		defs = append(defs, metricDef{name: "share." + l, unit: "ratio", better: "lower"})
	}
	return append(defs,
		metricDef{name: "trace.overhead", unit: "ratio", better: "lower"},
		metricDef{name: "trace.spans", unit: "count", better: "lower"},
	)
}
