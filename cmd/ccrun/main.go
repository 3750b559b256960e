// Command ccrun executes a .ppx program or a .ppz compressed image on the
// simulator and reports execution statistics.
//
// Usage:
//
//	ccrun prog.ppx
//	ccrun -steps 1e8 -cache 1024 prog.ppz
//	ccrun -trace 20 prog.ppz                       # disassemble the first 20 steps
//	ccrun -bundle out.bundle prog.ppz              # run bundle: profiles, audit, stats
//
// A run bundle holds the execution profile (profile.json), the exact
// per-function guest profile (guest.json, guest.folded) and, for
// dictionary images, the byte-provenance audit (audit.json, audit.csv);
// ccreport -text renders them as tables.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/cache"
	"repro/internal/codec"
	"repro/internal/codecs"
	"repro/internal/core"
	"repro/internal/objfile"
	"repro/internal/obs"
	"repro/internal/ppc"
	"repro/internal/program"
)

func main() {
	maxSteps := flag.Int64("steps", 200_000_000, "step budget")
	cacheSize := flag.Int("cache", 0, "simulate an I-cache of this many bytes (direct-mapped, 32B lines)")
	trace := flag.Int("trace", 0, "print the first N executed instructions to stderr")
	bundleDir := flag.String("bundle", "", "write a run bundle (stats, execution profile, guest profile, size audit) to this directory")
	flag.Parse()

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: ccrun [flags] prog.{ppx,ppz}")
		os.Exit(2)
	}
	path := flag.Arg(0)
	f, err := os.Open(path)
	if err != nil {
		fatal(err)
	}
	defer f.Close()

	var exe codec.Executable
	var p *program.Program
	var audit codec.Auditable
	id := obs.Identity{Bench: benchName(path)}
	switch {
	case strings.HasSuffix(path, ".ppz"):
		// The frame's method byte selects the codec; no scheme flag needed.
		oi, err := objfile.OpenImage(f)
		if err != nil {
			fatal(err)
		}
		id.Method = uint8(oi.Method())
		if c, err := codecs.ByMethod(oi.Method()); err == nil {
			id.Codec = c.Name
		}
		if img, ok := oi.(*core.Image); ok && img.Name != "" {
			id.Bench = img.Name
		}
		// Dictionary images reconstruct their audit from the serialized
		// marks; a bundle of any other image omits the section.
		audit, _ = oi.(codec.Auditable)
		var ok bool
		if exe, ok = oi.(codec.Executable); !ok {
			fatal(fmt.Errorf("image codec cannot execute (%T is a size comparator)", oi))
		}
	default:
		if p, err = objfile.ReadProgram(f); err != nil {
			fatal(err)
		}
		id.Codec = "native"
		if p.Name != "" {
			id.Bench = p.Name
		}
	}

	var col *obs.Collector
	if *bundleDir != "" {
		col = obs.NewCollector(id)
		if audit != nil {
			sa, err := audit.SizeAudit()
			if err != nil {
				fatal(err)
			}
			col.SetAudit(sa)
		}
	}

	var ic *cache.Cache
	if *cacheSize > 0 {
		if ic, err = cache.New(cache.Config{SizeBytes: *cacheSize, LineBytes: 32, Assoc: 1}); err != nil {
			fatal(err)
		}
	}
	var traceExec func(cia, word uint32)
	if *trace > 0 {
		left := *trace
		traceExec = func(cia uint32, word uint32) {
			if left > 0 {
				fmt.Fprintf(os.Stderr, "  %08x: %s\n", cia, ppc.Disassemble(word))
				left--
			}
		}
	}

	cpu, status, err := col.Run(exe, p, ic, *maxSteps, traceExec)
	if err != nil {
		fatal(err)
	}
	os.Stdout.Write(cpu.Output())
	st := cpu.Stats
	fmt.Fprintf(os.Stderr, "exit status %d\n", status)
	fmt.Fprintf(os.Stderr, "steps %d, taken branches %d, syscalls %d\n", st.Steps, st.TakenBranches, st.Syscalls)
	fmt.Fprintf(os.Stderr, "program-memory fetches %d (%d bytes), dictionary expansions %d\n",
		st.MemFetches, st.FetchedBytes, st.Expanded)
	fmt.Fprintf(os.Stderr, "fastpath: %d/%d steps (coverage %.4f), bails: %s\n",
		cpu.Fast.Steps, st.Steps, cpu.Fast.Coverage(st.Steps), cpu.Fast.BailSummary())
	if cpu.Fast.Epochs > 0 {
		fmt.Fprintf(os.Stderr, "fastpath: %d telemetry epochs drained\n", cpu.Fast.Epochs)
	}
	if ic != nil {
		fmt.Fprintf(os.Stderr, "icache: %d accesses, %d misses (%.2f%%)\n",
			ic.Stats.Accesses, ic.Stats.Misses, 100*ic.Stats.MissRate())
	}

	if col != nil {
		if err := col.Write(*bundleDir); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "bundle: %s\n", *bundleDir)
	}
}

// benchName strips the directory and the .ppx/.ppz extension: the default
// run identity when the object file carries no name of its own.
func benchName(path string) string {
	base := path
	if i := strings.LastIndexByte(base, '/'); i >= 0 {
		base = base[i+1:]
	}
	base = strings.TrimSuffix(base, ".ppx")
	base = strings.TrimSuffix(base, ".ppz")
	return base
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ccrun:", err)
	os.Exit(1)
}
