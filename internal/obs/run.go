package obs

import (
	"strings"

	"repro/internal/cache"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/guestprof"
	"repro/internal/machine"
	"repro/internal/program"
)

// cacheSampleEvery is the miss-curve interval of a bundle run with an
// I-cache: one curve point per 4096 line accesses.
const cacheSampleEvery = 4096

// Run executes one program and, on a non-nil collector, records it into
// the bundle: the stats recorder, the dictionary-entry heat map and the
// exact guest profiler are attached, the run's execution profile lands in
// the profile section and its symbolized guest profile with folded stacks
// in the guest sections. The program is exe — an executable image, opened
// from a .ppz or compressed in memory — or, when exe is nil, p executed
// natively. Cycles are symbolized through a dictionary image's address map
// and otherwise through p's symbols (executable comparators run at native
// addresses); with neither, the bundle has no guest section.
//
// ic, when non-nil, is the simulated I-cache every fetch feeds; a bundle
// run also samples its miss curve every cacheSampleEvery accesses and
// charges misses to guest functions. traceExec, when non-nil, observes
// every executed instruction. A nil collector attaches nothing else, so
// without ic or traceExec the run stays on the fused fast path.
func (c *Collector) Run(exe codec.Executable, p *program.Program, ic *cache.Cache, steps int64, traceExec func(cia, word uint32)) (*machine.CPU, int32, error) {
	var cpu *machine.CPU
	var err error
	if exe != nil {
		cpu, err = exe.NewMachine()
	} else {
		cpu, err = machine.NewForProgram(p)
	}
	if err != nil {
		return nil, 0, err
	}
	if ic != nil {
		cpu.TraceFetch = ic.Access
	}
	cpu.TraceExec = traceExec
	if c == nil {
		status, err := cpu.Run(steps)
		cpu.FlushEpoch()
		return cpu, status, err
	}

	img, _ := exe.(*core.Image)
	var sym *guestprof.SymTab
	switch {
	case img != nil:
		if sym, err = img.GuestSymTab(); err != nil {
			return nil, 0, err
		}
	case p != nil:
		sym = guestprof.NewProgramSymTab(p)
	}

	cpu.Record = c.rec
	if img != nil {
		cpu.EnableHeat(len(img.Entries))
	}
	var smp *cache.Sampler
	if ic != nil {
		if smp, err = cache.NewSampler(ic, cacheSampleEvery); err != nil {
			return nil, 0, err
		}
		cpu.TraceFetch = smp.Access
	}
	var gp *guestprof.Profiler
	if sym != nil {
		gp = guestprof.New(sym)
		gp.ObserveCache(ic)
		gp.Attach(cpu)
	}

	status, err := cpu.Run(steps)
	if err != nil {
		return nil, 0, err
	}
	cpu.FlushEpoch()

	var curve []cache.SamplePoint
	if smp != nil {
		curve = smp.Points
	}
	prof := core.CollectRunProfile(img, cpu, c.rec.Snapshot(), ic, curve)
	if prof.Name == "" {
		prof.Name = c.id.Bench
	}
	c.SetProfile(prof)
	if gp != nil {
		var sb strings.Builder
		if err := gp.WriteFolded(&sb); err != nil {
			return nil, 0, err
		}
		c.SetGuest(gp.Profile(c.id.Bench), sb.String())
	}
	return cpu, status, nil
}
