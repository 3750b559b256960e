package codedensity

import (
	"bytes"
	"testing"

	"repro/internal/codec"
	"repro/internal/codecs"
	"repro/internal/machine"
	"repro/internal/stats"
	"repro/internal/synth"
)

// FuzzFastPathDifferential pits the fused fast loop against the
// instrumented Step path over fuzzer-shaped programs, native and through
// every executable codec. The two engines share exec() but nothing of
// their fetch plumbing, so any table-construction bug — wrong successor,
// wrong expansion length, a counter charged differently — shows up as a
// divergence in output, exit status, or the Stats counters. The hooked
// machine counts TraceStep deliveries to prove the slow path actually ran.
// A third machine runs the fast path with epoch sampling on and a tiny
// epoch length, so every fuzz case crosses many epoch boundaries:
// sampling must not perturb any architectural result, and the drained
// slot traffic must conserve the fast-path step count exactly.
func FuzzFastPathDifferential(f *testing.F) {
	f.Add(int64(7), uint16(900))
	f.Add(int64(42), uint16(2500))
	f.Add(int64(1997), uint16(1400))
	f.Fuzz(func(t *testing.T, seed int64, size uint16) {
		prof, err := synth.ProfileFor("compress")
		if err != nil {
			t.Fatal(err)
		}
		prof.Seed = seed
		prof.TargetWords = 600 + int(size)%2400
		p, err := synth.GenerateProfile(prof)
		if err != nil {
			t.Skip(err)
		}

		fastN, err := machine.NewForProgram(p)
		if err != nil {
			t.Fatal(err)
		}
		slowN, err := machine.NewForProgram(p)
		if err != nil {
			t.Fatal(err)
		}
		sampN, err := machine.NewForProgram(p)
		if err != nil {
			t.Fatal(err)
		}
		comparePaths(t, "native", fastN, slowN, sampN)

		for _, cd := range codecs.All() {
			img, err := cd.Compress(p, codec.Options{})
			if err != nil {
				t.Fatalf("%s: compress: %v", cd.Name, err)
			}
			ex, ok := img.(codec.Executable)
			if !ok {
				continue // size comparators have nothing to execute
			}
			fast, err := ex.NewMachine()
			if err != nil {
				t.Fatalf("%s: new machine: %v", cd.Name, err)
			}
			slow, err := ex.NewMachine()
			if err != nil {
				t.Fatalf("%s: new machine: %v", cd.Name, err)
			}
			samp, err := ex.NewMachine()
			if err != nil {
				t.Fatalf("%s: new machine: %v", cd.Name, err)
			}
			comparePaths(t, cd.Name, fast, slow, samp)
		}
	})
}

// trafficSum is the fuzz observer: it only totals the drained per-slot
// traffic, so conservation against the machine's own step counter can be
// asserted after the run.
type trafficSum struct{ steps, fetches int64 }

func (s *trafficSum) ObserveEpoch(pd *machine.Predecode, tr []machine.SlotTraffic, touched []int32) {
	for _, i := range touched {
		s.steps += int64(tr[i].Steps)
		s.fetches += int64(tr[i].Fetches)
	}
}

// comparePaths runs fast bare, slow with a hook attached, and sampled
// with short-epoch sampling enabled, then demands identical errors,
// status, output, and counters — and exact traffic conservation.
func comparePaths(t *testing.T, name string, fast, slow, sampled *machine.CPU) {
	t.Helper()
	const maxSteps = 50_000_000
	var hooked int64
	slow.TraceStep = func(machine.StepInfo) { hooked++ }
	obs := &trafficSum{}
	sampled.EpochSteps = 97 // force many epoch boundaries per run
	sampled.EnableEpochSampling(stats.New(), obs)
	fs, ferr := fast.Run(maxSteps)
	ss, serr := slow.Run(maxSteps)
	ps, perr := sampled.Run(maxSteps)
	sampled.FlushEpoch()
	if (ferr == nil) != (serr == nil) || (ferr != nil && ferr.Error() != serr.Error()) {
		t.Fatalf("%s: error divergence: fast %v, slow %v", name, ferr, serr)
	}
	if (ferr == nil) != (perr == nil) || (ferr != nil && ferr.Error() != perr.Error()) {
		t.Fatalf("%s: error divergence: fast %v, sampled %v", name, ferr, perr)
	}
	if hooked != slow.Stats.Steps {
		t.Fatalf("%s: TraceStep fired %d times for %d steps", name, hooked, slow.Stats.Steps)
	}
	if obs.steps != sampled.Fast.Steps {
		t.Fatalf("%s: drained traffic holds %d steps, fast path executed %d",
			name, obs.steps, sampled.Fast.Steps)
	}
	if ferr != nil {
		return // matching faults; no architectural result to compare
	}
	if fs != ss {
		t.Fatalf("%s: exit status fast %d, slow %d", name, fs, ss)
	}
	if ps != fs {
		t.Fatalf("%s: exit status fast %d, sampled %d", name, fs, ps)
	}
	if !bytes.Equal(fast.Output(), slow.Output()) {
		t.Fatalf("%s: output diverged (%d vs %d bytes)", name, len(fast.Output()), len(slow.Output()))
	}
	if !bytes.Equal(fast.Output(), sampled.Output()) {
		t.Fatalf("%s: sampled output diverged (%d vs %d bytes)", name, len(fast.Output()), len(sampled.Output()))
	}
	if fast.Stats != slow.Stats {
		t.Fatalf("%s: stats diverged:\nfast %+v\nslow %+v", name, fast.Stats, slow.Stats)
	}
	if fast.Stats != sampled.Stats {
		t.Fatalf("%s: sampling perturbed stats:\nfast    %+v\nsampled %+v", name, fast.Stats, sampled.Stats)
	}
}
