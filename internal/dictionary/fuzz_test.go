package dictionary

// Fuzz differential: random texts, compressibility masks and leader masks
// are fed to the indexed and reference greedy builders, which must agree
// exactly — including when the candidate hash is deliberately degraded to
// a single byte so the collision chain carries essentially all lookups,
// and when the indexed selection is cut to a fuzzed entry budget instead
// of being built under it. The seed corpus runs on every plain `go test`.

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/stats"
)

// fuzzVocab is a small instruction vocabulary so short fuzz inputs still
// produce repeating sequences worth compressing.
var fuzzVocab = [8]uint32{
	0x38630001, // addi r3,r3,1
	0x80690004, // lwz r3,4(r9)
	0x90690008, // stw r3,8(r9)
	0x7c632214, // add r3,r3,r4
	0x60000000, // nop
	0x7c6802a6, // mflr r3
	0x54631838, // rlwinm r3,r3,3,...
	0x3880ffff, // li r4,-1
}

// fuzzInput derives a bounded build input from raw bytes: three bits of
// vocabulary, two bits steering compressibility (mostly on), the rest
// leaders (sparse).
func fuzzInput(data []byte) (text []uint32, comp, lead []bool) {
	n := len(data)
	if n > 512 {
		n = 512
	}
	text = make([]uint32, n)
	comp = make([]bool, n)
	lead = make([]bool, n)
	for i := 0; i < n; i++ {
		b := data[i]
		text[i] = fuzzVocab[b&7]
		comp[i] = b&0x18 != 0x18
		lead[i] = b&0xe0 == 0xe0
	}
	if n > 0 {
		lead[0] = true
	}
	return text, comp, lead
}

// steppedCost is a non-trivial, non-decreasing codeword schedule (the
// contract CodewordBits must obey).
func steppedCost(rank int) int {
	switch {
	case rank < 4:
		return 4
	case rank < 16:
		return 8
	default:
		return 16
	}
}

func mustBuild(t *testing.T, text []uint32, cfg Config) *Result {
	t.Helper()
	r, err := Build(text, cfg)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return r
}

func mustReference(t *testing.T, text []uint32, cfg Config) *Result {
	t.Helper()
	r, err := Reference(text, cfg)
	if err != nil {
		t.Fatalf("reference build: %v", err)
	}
	return r
}

func assertSameResult(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if !reflect.DeepEqual(got.Entries, want.Entries) {
		t.Fatalf("%s: entries diverge", label)
	}
	if !reflect.DeepEqual(got.Items, want.Items) {
		t.Fatalf("%s: items diverge", label)
	}
	if got.CoveredInsns != want.CoveredInsns {
		t.Fatalf("%s: covered %d != %d", label, got.CoveredInsns, want.CoveredInsns)
	}
}

func FuzzBuildDifferential(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0}, uint8(4), uint8(0))
	f.Add([]byte{1, 2, 1, 2, 1, 2, 1, 2, 1, 2}, uint8(2), uint8(1))
	f.Add([]byte{7, 7, 0x9f, 7, 7, 0xe1, 7, 7, 7, 0x18, 7, 7}, uint8(8), uint8(2))
	f.Add([]byte{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3, 1, 4, 1, 5, 9, 2, 6}, uint8(3), uint8(47))
	f.Fuzz(func(t *testing.T, data []byte, maxLenRaw, capRaw uint8) {
		text, comp, lead := fuzzInput(data)
		if len(text) == 0 {
			t.Skip()
		}
		cfg := Config{
			MaxEntries:        48,
			MaxEntryLen:       int(maxLenRaw)%8 + 1,
			CodewordBits:      steppedCost,
			EntryOverheadBits: 16,
			Compressible:      comp,
			Leader:            lead,
		}
		want := mustReference(t, text, cfg)
		got := mustBuild(t, text, cfg)
		assertSameResult(t, "indexed vs reference", got, want)

		// Prefix property: the selection under the full budget, cut to a
		// fuzzed cap of 1..MaxEntries, must equal the reference build run
		// under that cap.
		cs, err := NewCandidates(text, cfg)
		if err != nil {
			t.Fatal(err)
		}
		sel, err := cs.Select(cfg)
		if err != nil {
			t.Fatal(err)
		}
		capped := cfg
		capped.MaxEntries = int(capRaw)%cfg.MaxEntries + 1
		prefix, err := sel.Prefix(capped.MaxEntries)
		if err != nil {
			t.Fatal(err)
		}
		assertSameResult(t, fmt.Sprintf("prefix %d vs capped reference", capped.MaxEntries), prefix, mustReference(t, text, capped))

		// Degraded hash: every bucket collides, output must not move.
		cfg.degradeHash = true
		rec := stats.New()
		cfg.Stats = rec
		degraded := mustBuild(t, text, cfg)
		assertSameResult(t, "degraded hash", degraded, want)
		if _, ok := rec.Snapshot().Counters["dict.hash_collisions"]; !ok {
			t.Error("dict.hash_collisions not recorded")
		}
	})
}

// TestDegradedHashCollisions pins the collision path deterministically:
// with the hash collapsed to one byte and far more than 256 distinct
// sequences, chains must both collide heavily and resolve correctly.
func TestDegradedHashCollisions(t *testing.T) {
	var text []uint32
	for i := 0; i < 600; i++ {
		text = append(text, 0x38600000|uint32(i), 0x38600000|uint32(i)) // each word appears twice in a row
	}
	n := len(text)
	comp := make([]bool, n)
	lead := make([]bool, n)
	for i := range comp {
		comp[i] = true
	}
	lead[0] = true
	cfg := Config{
		MaxEntries:        0,
		MaxEntryLen:       3,
		CodewordBits:      func(int) int { return 8 },
		EntryOverheadBits: 16,
		Compressible:      comp,
		Leader:            lead,
	}
	want := mustReference(t, text, cfg)

	cfg.degradeHash = true
	rec := stats.New()
	cfg.Stats = rec
	got := mustBuild(t, text, cfg)
	assertSameResult(t, "degraded hash", got, want)
	if c := rec.Snapshot().Counter("dict.hash_collisions"); c == 0 {
		t.Error("degraded hash produced no collisions — the chain path was not exercised")
	}

	// And the real hash on the same input should collide rarely or never.
	cfg.degradeHash = false
	rec2 := stats.New()
	cfg.Stats = rec2
	got2 := mustBuild(t, text, cfg)
	assertSameResult(t, "real hash", got2, want)
	if c := rec2.Snapshot().Counter("dict.hash_collisions"); c > 4 {
		t.Errorf("real 64-bit hash collided %d times on a toy input", c)
	}
}
