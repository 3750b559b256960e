package main

import (
	"fmt"
	"math"
	"time"
)

// accountSpans turns the traced passes' spans into per-layer self times
// (a span's duration minus its children's) and per-call time metrics, and
// checks that the self times add up to the traced wall time.
func (b *bench) accountSpans() error {
	spans := b.tracer.Spans()
	children := make(map[int64]time.Duration)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] += s.Dur
		}
	}
	var basis float64
	for _, s := range spans {
		if !s.Ended {
			return fmt.Errorf("span %s (id %d) never ended", s.Name, s.ID)
		}
		self := s.Dur - children[s.ID]
		if self < 0 {
			return fmt.Errorf("span %s (id %d): children outlast it by %v", s.Name, s.ID, -self)
		}
		b.add("self_ms."+layerOf(s.Name), ms(self))
		if m, ok := spanMetrics[s.Name]; ok {
			b.add(m, ms(s.Dur))
		}
		if s.Parent == 0 {
			basis += ms(s.Dur)
		}
	}
	b.add("_basis_ms", basis)
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// perLayer computes the traced run's metrics, prints the per-layer self
// time table, and runs the accounting self-check: the layers' self times,
// unaccounted remainder included, must add up to the traced wall time.
func (b *bench) perLayer(tracedCPU, untracedCPU float64) (map[string]float64, error) {
	n := float64(len(b.traced))
	if n == 0 {
		return nil, fmt.Errorf("no traced pass")
	}
	if !b.phaseAccounting {
		if err := b.accountSpans(); err != nil {
			return nil, err
		}
	}
	l := b.layer
	out := map[string]float64{}
	for _, d := range perLayerMetrics() {
		out[d.name] = l[d.name] / n
	}
	// The program's counters are those of the first traced pass. Later
	// traced passes run other seeded programs, and how many of them a run
	// gets depends on timing, so an average over all of them would not
	// repeat from run to run.
	first := b.first
	if first == nil {
		first = l
	}
	for _, name := range passCounters() {
		out[name] = first[name]
	}
	out["dict.pop_yield"] = safeDiv(first["dict.entries"], first["dict.heap_pops"])
	out["objfile.ppz_bytes"] = safeDiv(first["objfile.ppz_bytes"], first["_images"])
	out["machine.fastpath.coverage"] = safeDiv(first["_fast.steps"], first["machine.steps"])
	out["cache.miss_rate"] = safeDiv(first["cache.misses"], first["_cache.accesses"])
	out["dictionary.build_mbps"] = safeDiv(l["_dict.text_bytes"]/1e6, l["dictionary.build_ms"]/1e3)
	out["core.assemble_ms"] = out["core.compress_ms"] - out["core.markers_ms"] - out["dictionary.build_ms"]
	out["machine.run_us"] = safeDiv(l["_run.ns"], l["_run.n"]) / 1e3
	out["machine.icache_run_us"] = safeDiv(l["_icache.ns"], l["_icache.n"]) / 1e3
	out["machine.native_run_us"] = safeDiv(l["_native.ns"], l["_native.n"]) / 1e3
	out["machine.mips"] = safeDiv(l["_run.steps"], l["_run.ns"]) * 1e3
	out["machine.icache_mips"] = safeDiv(l["_icache.steps"], l["_icache.ns"]) * 1e3
	out["machine.compressed_vs_native"] = safeDiv(out["machine.run_us"], out["machine.native_run_us"])
	out["trace.overhead"] = safeDiv(tracedCPU, untracedCPU)
	out["trace.spans"] = float64(b.tracer.Len()) / n

	// Self-check: shares over the basis (traced wall time, or worker-slot
	// time for the parallel suite) must sum to one, none negative.
	basis := l["_basis_ms"]
	sum := 0.0
	b.reportf("%-12s %12s %8s   (per traced pass; basis %.3f ms)", "layer", "self_ms", "share", basis/n)
	for _, name := range layers {
		self := l["self_ms."+name]
		sum += self
		out["share."+name] = safeDiv(self, basis)
		b.reportf("%-12s %12.3f %8.4f", name, self/n, out["share."+name])
		if self < 0 {
			b.op(fmt.Errorf("layer accounting: %s self time %.3f ms is negative", name, self))
		}
	}
	b.op(checkClose("layer self times", sum, basis, 0.01))
	wall := 0.0
	for _, w := range b.tracedWalls {
		wall += w * 1e3
	}
	b.op(checkClose("traced wall vs basis", basis, b.basisScale()*wall, 0.02))
	b.reportf("tracing overhead: traced pass %.6g CPU s vs untraced %.6g CPU s = %.4f×", tracedCPU, untracedCPU, out["trace.overhead"])
	return out, nil
}

// basisScale is how many worker slots the accounting basis spans per
// second of wall time.
func (b *bench) basisScale() float64 {
	if b.slots > 0 {
		return float64(b.slots)
	}
	return 1
}

func checkClose(what string, got, want, tol float64) error {
	if want <= 0 || math.Abs(got-want) > tol*want {
		return fmt.Errorf("%s: %.3f vs %.3f (tolerance %.0f%%)", what, got, want, tol*100)
	}
	return nil
}
