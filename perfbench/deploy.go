package main

import (
	"bytes"
	"errors"
	"fmt"
	"time"

	"repro/internal/codeword"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/objfile"
	"repro/internal/program"
	"repro/internal/stats"
	"repro/internal/trace"
)

// schemes are ccomp's default encoding and the paper's headline one.
var schemes = []codeword.Scheme{codeword.Baseline, codeword.Nibble}

// deployPerProfile is how many distinct programs of each profile one
// deploy round compresses.
const deployPerProfile = 2

// runDeploy times the ccgen → ccomp → ccrun path. Each round generates
// fresh programs (set-up), then deploys each once per scheme (the pass):
// every dictionary build is of a program no earlier build has seen.
func runDeploy(b *bench) error {
	var textBytes, passSeconds float64
	b.scalePass = true
	for round := 0; b.more(round); round++ {
		var subjects []subject
		err := b.setup(func() (err error) {
			subjects, err = generate(b.cfg.seed, round, deployPerProfile, 1)
			return err
		})
		if err != nil {
			return err
		}

		t1 := time.Now()
		traced := false
		b.pass(round, func(sp *trace.Span) {
			traced = sp != nil
			var rec *stats.Recorder
			if traced {
				rec = stats.New()
			}
			for _, s := range subjects {
				for _, scheme := range schemes {
					b.deployOne(round, s, scheme, rec, sp)
				}
			}
			if traced {
				snap := rec.Snapshot()
				for _, c := range dictCounters {
					b.add(c, float64(snap.Counter(c)))
				}
			}
		})
		if !traced {
			passSeconds += time.Since(t1).Seconds()
			for _, s := range subjects {
				textBytes += float64(len(schemes) * s.prog.SizeBytes())
			}
		}
	}
	b.reportf("deploy_mbps %.6g MB/s (original text ÷ pass wall); deploy_ms_p50/p90 are op_ms_p50/p90 below", safeDiv(textBytes/1e6, passSeconds))
	return nil
}

// deployOne deploys one program under one scheme, times the pipeline and
// checks its result. sp is nil on untraced passes.
func (b *bench) deployOne(round int, s subject, scheme codeword.Scheme, rec *stats.Recorder, sp *trace.Span) {
	req := sp.Child("request").SetInt("req", b.attempted).Set("scheme", scheme.String())
	t0 := time.Now()
	img, ppz, err := compressAndWrite(s.prog, scheme, rec, req)
	var d deployment
	if err == nil {
		d, err = openAndRun(s.prog, ppz, req)
	}
	elapsed := time.Since(t0)
	if err == nil {
		chk := req.Child("perfbench.check")
		err = d.check(s.ref, ppz)
		chk.End()
	}
	req.End()
	b.op(err)
	if err != nil {
		return
	}
	if round < 2 { // every run has these rounds, so size_ratio depends only on the seed
		b.ratios = append(b.ratios, img.Ratio())
	}
	if sp == nil {
		b.ops = append(b.ops, ms(elapsed))
		return
	}
	b.add("dictionary.builds", 1)
	b.add("_dict.text_bytes", float64(s.prog.SizeBytes()))
	b.add("_images", 1)
	b.add("objfile.ppz_bytes", float64(len(ppz)))
	addRun(b.layer, "_run", d.cpu, d.run)
}

// addRun accumulates one simulated run's time and machine counters into
// acc under the given mode key: _run (bare compressed), _native or _icache.
func addRun(acc map[string]float64, mode string, cpu *machine.CPU, d time.Duration) {
	acc[mode+".ns"] += float64(d)
	acc[mode+".n"]++
	acc[mode+".steps"] += float64(cpu.Stats.Steps)
	acc["machine.steps"] += float64(cpu.Stats.Steps)
	acc["_fast.steps"] += float64(cpu.Fast.Steps)
	for r, n := range cpu.Fast.Bails {
		acc["machine.fastpath.bail."+machine.BailReason(r).String()] += float64(n)
	}
}

// compressAndWrite is ccomp: compress the program and serialize the image.
func compressAndWrite(p *program.Program, scheme codeword.Scheme, rec *stats.Recorder, sp *trace.Span) (*core.Image, []byte, error) {
	c := sp.Child("core.Compress")
	img, err := core.Compress(p.Clone(), core.Options{Scheme: scheme, Stats: rec, Trace: c})
	c.End()
	if err != nil {
		return nil, nil, fmt.Errorf("compressing %s: %w", p.Name, err)
	}
	var buf bytes.Buffer
	w := sp.Child("objfile.WriteImage")
	err = objfile.WriteImage(&buf, img)
	w.End()
	if err != nil {
		return nil, nil, fmt.Errorf("writing %s: %w", p.Name, err)
	}
	return img, buf.Bytes(), nil
}

// deployment is an opened image after its first run.
type deployment struct {
	img    *core.Image
	cpu    *machine.CPU
	status int32
	run    time.Duration
}

// openAndRun is ccrun: open the serialized image, verify it against the
// original program, build its predecode table and machine, and run it.
func openAndRun(p *program.Program, ppz []byte, sp *trace.Span) (deployment, error) {
	o := sp.Child("objfile.OpenImage")
	opened, err := objfile.OpenImage(bytes.NewReader(ppz))
	o.End()
	if err != nil {
		return deployment{}, fmt.Errorf("opening %s: %w", p.Name, err)
	}
	img, ok := opened.(*core.Image)
	if !ok {
		return deployment{}, fmt.Errorf("opening %s: got a %T, not a dictionary image", p.Name, opened)
	}
	v := sp.Child("core.Verify")
	err = core.Verify(p, img)
	v.End()
	if err != nil {
		return deployment{}, fmt.Errorf("verifying %s: %w", p.Name, err)
	}
	pd := sp.Child("core.Predecode")
	img.Predecode()
	pd.End()
	nm := sp.Child("core.NewMachine")
	cpu, err := core.NewMachine(img)
	nm.End()
	if err != nil {
		return deployment{}, fmt.Errorf("machine for %s: %w", p.Name, err)
	}
	r := sp.Child("machine.Run")
	t0 := time.Now()
	status, err := cpu.Run(maxSteps)
	d := time.Since(t0)
	r.End()
	if err != nil {
		return deployment{}, fmt.Errorf("running %s: %w", p.Name, err)
	}
	return deployment{img: img, cpu: cpu, status: status, run: d}, nil
}

// check compares the run with the native reference and re-serializes the
// opened image, which must reproduce the bytes it was opened from.
func (d deployment) check(ref reference, ppz []byte) error {
	if err := ref.matches(d.cpu.Output(), d.status); err != nil {
		return fmt.Errorf("%s: %w", d.img.Name, err)
	}
	var buf bytes.Buffer
	if err := objfile.WriteImage(&buf, d.img); err != nil {
		return fmt.Errorf("re-writing %s: %w", d.img.Name, err)
	}
	if !bytes.Equal(buf.Bytes(), ppz) {
		return errors.New(d.img.Name + ": re-serializing the opened image changed its bytes")
	}
	return nil
}
