package objfile

import (
	"bytes"
	"testing"

	"repro/internal/codec"
	"repro/internal/codecs"
	"repro/internal/machine"
	"repro/internal/synth"
)

// FuzzCodecRoundTrip drives every codec in the table over fuzzer-shaped
// synthetic programs: compress, verify, serialize through the versioned
// frame, reopen from nothing but the method byte, and — for executable
// codecs — differentially execute the reopened image against the native
// program. Any divergence (payload drift across a round trip, a wrong
// method byte, differing output or exit status) fails.
func FuzzCodecRoundTrip(f *testing.F) {
	f.Add(int64(1), uint16(800))
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
			// Not every profile mutation yields a linkable program; that is
			// the generator's business, not the codecs'.
			t.Skip(err)
		}

		const maxSteps = 50_000_000
		native, err := machine.NewForProgram(p)
		if err != nil {
			t.Fatal(err)
		}
		nativeStatus, err := native.Run(maxSteps)
		if err != nil {
			t.Skipf("native run: %v", err)
		}
		nativeOut := native.Output()

		for _, cd := range codecs.All() {
			img, err := cd.Compress(p, codec.Options{})
			if err != nil {
				t.Fatalf("%s: compress: %v", cd.Name, err)
			}
			if err := img.Verify(p); err != nil {
				t.Fatalf("%s: verify: %v", cd.Name, err)
			}

			var frame bytes.Buffer
			if err := WriteImage(&frame, img); err != nil {
				t.Fatalf("%s: write frame: %v", cd.Name, err)
			}
			got, err := OpenImage(bytes.NewReader(frame.Bytes()))
			if err != nil {
				t.Fatalf("%s: reopen: %v", cd.Name, err)
			}
			if got.Method() != cd.Method {
				t.Fatalf("%s: reopened method %#x, want %#x", cd.Name, got.Method(), cd.Method)
			}
			var before, after bytes.Buffer
			if err := img.WritePayload(&before); err != nil {
				t.Fatal(err)
			}
			if err := got.WritePayload(&after); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(before.Bytes(), after.Bytes()) {
				t.Fatalf("%s: payload drifted across a serialize/reopen cycle", cd.Name)
			}

			ex, ok := got.(codec.Executable)
			if !ok {
				continue // size comparators have nothing to execute
			}
			cpu, err := ex.NewMachine()
			if err != nil {
				t.Fatalf("%s: new machine: %v", cd.Name, err)
			}
			status, err := cpu.Run(maxSteps)
			if err != nil {
				t.Fatalf("%s: compressed run: %v", cd.Name, err)
			}
			if status != nativeStatus {
				t.Fatalf("%s: exit status %d, native %d", cd.Name, status, nativeStatus)
			}
			if !bytes.Equal(cpu.Output(), nativeOut) {
				t.Fatalf("%s: output diverged from native (%d vs %d bytes)",
					cd.Name, len(cpu.Output()), len(nativeOut))
			}
		}
	})
}
