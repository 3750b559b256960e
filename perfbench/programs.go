package main

import (
	"bytes"
	"fmt"

	"repro/internal/machine"
	"repro/internal/program"
	"repro/internal/synth"
)

// subject is one generated program with the native run that is the
// reference for every compressed run of it.
type subject struct {
	profile string
	prog    *program.Program
	ref     reference
}

// reference is what a correct run of a program produces.
type reference struct {
	out    []byte
	status int32
	steps  int64
}

// matches reports how a run's output and status differ from the
// reference, if they do.
func (r reference) matches(out []byte, status int32) error {
	if status != r.status {
		return fmt.Errorf("exit status %d, reference %d", status, r.status)
	}
	if !bytes.Equal(out, r.out) {
		return fmt.Errorf("output %q differs from reference %q", clip(out), clip(r.out))
	}
	return nil
}

func clip(b []byte) []byte {
	if len(b) > 32 {
		return b[:32]
	}
	return b
}

// splitmix64 scrambles a workload seed and a position into an independent
// profile seed.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// profileSeed derives the synth seed of program k of profile i in round r.
func profileSeed(seed int64, r, i, k int) int64 {
	x := splitmix64(uint64(seed))
	for _, v := range []int{r, i, k} {
		x = splitmix64(x ^ uint64(v))
	}
	return int64(x >> 1)
}

// generate re-seeds each of the eight synth profiles perProfile times for
// round r, scales their size target, and runs each program natively once
// for its reference.
func generate(seed int64, r, perProfile int, scale float64) ([]subject, error) {
	var out []subject
	for i, name := range synth.BenchmarkNames() {
		for k := 0; k < perProfile; k++ {
			pf, err := synth.ProfileFor(name)
			if err != nil {
				return nil, err
			}
			pf.Seed = profileSeed(seed, r, i, k)
			pf.TargetWords = int(float64(pf.TargetWords) * scale)
			p, err := synth.GenerateProfile(pf)
			if err != nil {
				return nil, fmt.Errorf("generating %s seed %d: %w", name, pf.Seed, err)
			}
			cpu, err := machine.NewForProgram(p)
			if err != nil {
				return nil, err
			}
			status, err := cpu.Run(maxSteps)
			if err != nil {
				return nil, fmt.Errorf("native run of %s seed %d: %w", name, pf.Seed, err)
			}
			out = append(out, subject{
				profile: name,
				prog:    p,
				ref:     reference{out: append([]byte(nil), cpu.Output()...), status: status, steps: cpu.Stats.Steps},
			})
		}
	}
	return out, nil
}
