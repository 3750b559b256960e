package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/cache"
	"repro/internal/codeword"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/trace"
)

const (
	// execRounds set-ups per run; each builds a fresh program set, whose
	// requests then run until the round's share of the run time is used.
	// Step counts vary several-fold between seeds, so a run spreads its
	// passes over many programs for pass time to be steady from seed to
	// seed, while only one round's machines are live at a time.
	execRounds = 6
	// execPerProfile programs of each profile per round. A few programs
	// run ten times as long as their profile's median, so a round's pass
	// time follows its program draw; more programs per round steady it.
	execPerProfile = 4
	// execScale shrinks the profiles' size targets so set-up (dictionary
	// builds) stays small beside the timed execution; step counts barely
	// depend on program size.
	execScale = 0.125
	// icacheBytes is the direct-mapped I-cache of ccrun -cache 1024.
	icacheBytes = 1024
	// minExecPasses per round, so traced mode has untraced passes too.
	minExecPasses = 4
)

// pair is one (program, mode) combination of the exec workload, with its
// warm machine and what every request on it must reproduce.
type pair struct {
	mode   string // nibble, baseline, native or icache
	cpu    *machine.CPU
	ic     *cache.Cache // icache mode only
	ref    reference    // native run: output and exit status
	steps  int64        // warm-up run's step count
	misses int64        // warm-up run's I-cache misses
}

// accKey is the accumulator key of the pair's mode.
func (p *pair) accKey() string {
	switch p.mode {
	case "native":
		return "_native"
	case "icache":
		return "_icache"
	}
	return "_run"
}

// runExec times warm, steady-state execution: Reset + Run requests over
// images compressed, serialized, reopened and run once during set-up.
// Every pass runs each pair once, in a seeded order.
func runExec(b *bench) error {
	untraced := map[string]float64{}
	for round := 0; round < execRounds; round++ {
		var pairs []*pair
		err := b.setup(func() (err error) {
			pairs, err = b.execSetup(round)
			return err
		})
		if err != nil {
			return err
		}

		end := b.start.Add(time.Duration(b.cfg.seconds * float64(round+1) / execRounds * float64(time.Second)))
		rng := rand.New(rand.NewSource(profileSeed(b.cfg.seed, round, -1, -1)))
		for n := 0; n < minExecPasses || time.Now().Before(end); n++ {
			order := rng.Perm(len(pairs))
			b.pass(round, func(sp *trace.Span) {
				acc := untraced
				if sp != nil {
					acc = b.layer
				}
				for _, i := range order {
					b.request(pairs[i], acc, sp)
				}
			})
		}
	}
	u := untraced
	runUS := safeDiv(u["_run.ns"], u["_run.n"]) / 1e3
	nativeUS := safeDiv(u["_native.ns"], u["_native.n"]) / 1e3
	b.reportf("exec_mips %.6g MIPS (bare compressed), exec_icache_mips %.6g MIPS",
		safeDiv(u["_run.steps"], u["_run.ns"])*1e3, safeDiv(u["_icache.steps"], u["_icache.ns"])*1e3)
	b.reportf("compressed_vs_native %.6g (bare compressed run %.6g us ÷ native run %.6g us, same programs)",
		safeDiv(runUS, nativeUS), runUS, nativeUS)
	b.reportf("exec_run_us_p50 %.6g us, exec_run_us_p99 %.6g us over %d requests",
		quantile(b.ops, 0.5)*1e3, quantile(b.ops, 0.99)*1e3, len(b.ops))
	return nil
}

// execSetup generates the round's programs and prepares four warm
// machines for each: nibble and baseline images that went through
// compress → write → open → verify → first run, the native program, and
// the nibble image with the I-cache on its fetch path.
func (b *bench) execSetup(round int) ([]*pair, error) {
	subjects, err := generate(b.cfg.seed, round, execPerProfile, execScale)
	if err != nil {
		return nil, err
	}
	var pairs []*pair
	for _, s := range subjects {
		cpu, err := machine.NewForProgram(s.prog)
		if err != nil {
			return nil, err
		}
		pairs = append(pairs, &pair{mode: "native", cpu: cpu, ref: s.ref})
		for _, scheme := range schemes {
			img, ppz, err := compressAndWrite(s.prog, scheme, nil, nil)
			if err != nil {
				return nil, err
			}
			d, err := openAndRun(s.prog, ppz, nil)
			if err == nil {
				err = d.check(s.ref, ppz)
			}
			if err != nil {
				return nil, err
			}
			b.ratios = append(b.ratios, img.Ratio())
			pairs = append(pairs, &pair{mode: scheme.String(), cpu: d.cpu, ref: s.ref})
			if scheme != codeword.Nibble {
				continue
			}
			cpu, err := core.NewMachine(d.img)
			if err != nil {
				return nil, err
			}
			ic, err := cache.New(cache.Config{SizeBytes: icacheBytes, LineBytes: 32, Assoc: 1})
			if err != nil {
				return nil, err
			}
			cpu.TraceFetch = ic.Access
			pairs = append(pairs, &pair{mode: "icache", cpu: cpu, ic: ic, ref: s.ref})
		}
	}
	// Warm-up: one checked request per pair fixes its step and miss counts.
	for _, p := range pairs {
		if err := p.do(); err != nil {
			return nil, fmt.Errorf("warm-up %s: %w", p.mode, err)
		}
		p.steps = p.cpu.Stats.Steps
		if p.ic != nil {
			p.misses = p.ic.Stats.Misses
		}
	}
	return pairs, nil
}

// do is one request: Reset + Run, with the output and exit status checked
// against the native reference.
func (p *pair) do() error {
	if p.ic != nil {
		p.ic.Reset()
	}
	if err := p.cpu.Reset(); err != nil {
		return err
	}
	status, err := p.cpu.Run(maxSteps)
	if err != nil {
		return err
	}
	return p.ref.matches(p.cpu.Output(), status)
}

// request times one request and checks it against the reference and the
// warm-up run. acc receives the per-mode run totals.
func (b *bench) request(p *pair, acc map[string]float64, sp *trace.Span) {
	req := sp.Child("request").SetInt("req", b.attempted).Set("mode", p.mode)
	rs := req.Child("machine.Reset")
	t0 := time.Now()
	if p.ic != nil {
		p.ic.Reset()
	}
	err := p.cpu.Reset()
	rs.End()
	var status int32
	t1 := time.Now()
	if err == nil {
		r := req.Child("machine.Run")
		status, err = p.cpu.Run(maxSteps)
		r.End()
	}
	t2 := time.Now()
	chk := req.Child("perfbench.check")
	if err == nil {
		err = p.ref.matches(p.cpu.Output(), status)
	}
	if err == nil && p.cpu.Stats.Steps != p.steps {
		err = fmt.Errorf("%d steps, warm-up run took %d", p.cpu.Stats.Steps, p.steps)
	}
	if err == nil && p.ic != nil && p.ic.Stats.Misses != p.misses {
		err = fmt.Errorf("%d I-cache misses, warm-up run had %d", p.ic.Stats.Misses, p.misses)
	}
	chk.End()
	req.End()
	if err != nil {
		err = fmt.Errorf("%s request: %w", p.mode, err)
	}
	b.op(err)
	if err != nil {
		return
	}
	addRun(acc, p.accKey(), p.cpu, t2.Sub(t1))
	if p.ic != nil {
		acc["cache.misses"] += float64(p.ic.Stats.Misses)
		acc["_cache.accesses"] += float64(p.ic.Stats.Accesses)
	}
	if sp == nil {
		b.ops = append(b.ops, ms(t2.Sub(t0)))
	}
}
