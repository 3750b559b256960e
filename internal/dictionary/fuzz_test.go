package dictionary

// Fuzz differential: random texts, compressibility masks and leader masks
// are fed to the indexed and reference greedy builders, which must agree
// exactly, including when the indexed selection is cut to a fuzzed entry
// budget instead of being built under it. The seed corpus runs on every
// plain `go test`.

import (
	"fmt"
	"reflect"
	"slices"
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
	})
}

// TestEnumerationEdgeCases drives the sorted-start enumeration through the
// texts that stress its radix passes and longest-common-prefix runs: one
// repeated word, a two-word alphabet, the extreme word values of both
// 16-bit halves, dense leaders, runs of incompressible words, and a
// sequence cut short by a leader right after an uncut occurrence of it.
// At every entry length the index must be well formed, hold as many
// candidates as the reference enumerates, and select what the reference
// selects.
func TestEnumerationEdgeCases(t *testing.T) {
	type input struct {
		name       string
		text       []uint32
		comp, lead []bool
	}
	mk := func(name string, text []uint32, lead func(i int) bool, comp func(i int) bool) input {
		in := input{name: name, text: text, comp: make([]bool, len(text)), lead: make([]bool, len(text))}
		for i := range text {
			in.comp[i] = comp == nil || comp(i)
			in.lead[i] = i == 0 || lead != nil && lead(i)
		}
		return in
	}
	repeat := func(n int, f func(i int) uint32) []uint32 {
		out := make([]uint32, n)
		for i := range out {
			out[i] = f(i)
		}
		return out
	}
	const a, b = 0x38630001, 0x7c632214
	lcg := uint32(1)
	twoSym := repeat(300, func(int) uint32 {
		lcg = lcg*1103515245 + 12345
		if lcg>>16&1 == 0 {
			return a
		}
		return b
	})
	extremes := []uint32{0, 0xffffffff, 0x0000ffff, 0xffff0000, 0x00010000, 0x0000fffe}
	inputs := []input{
		mk("identical", repeat(64, func(int) uint32 { return a }), nil, nil),
		mk("two-symbol", twoSym, nil, nil),
		mk("radix-extremes", repeat(240, func(i int) uint32 { return extremes[(i*i+i/7)%len(extremes)] }), nil, nil),
		mk("identical-extremes", repeat(40, func(i int) uint32 { return 0xffffffff * uint32(i/20) }), nil, nil),
		mk("incompressible-runs", twoSym, nil, func(i int) bool { return i%11 > 2 }),
		mk("all-incompressible", twoSym[:20], nil, func(int) bool { return false }),
		// ABCD at 0 and 8; at 4 the leader at 6 cuts it to AB; the
		// text's end cuts the last occurrence to ABC.
		mk("leader-cut", []uint32{a, b, 0, 0xffffffff, a, b, 0, 0xffffffff, a, b, 0, 0xffffffff, 7, a, b, 0},
			func(i int) bool { return i == 6 }, nil),
	}
	for _, k := range []int{1, 2, 3, 5} {
		k := k
		inputs = append(inputs, mk(fmt.Sprintf("leaders-every-%d", k), twoSym, func(i int) bool { return i%k == 0 }, nil))
	}
	var selected int
	for _, in := range inputs {
		for maxLen := 1; maxLen <= 8; maxLen++ {
			label := fmt.Sprintf("%s/L=%d", in.name, maxLen)
			cfg := Config{
				MaxEntryLen:       maxLen,
				CodewordBits:      steppedCost,
				EntryOverheadBits: 16,
				Compressible:      in.comp,
				Leader:            in.lead,
				Stats:             stats.New(),
			}
			want := mustReference(t, in.text, cfg)
			refCands := cfg.Stats.Snapshot().Counter("dict.candidates")
			cs, err := NewCandidates(in.text, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if int64(cs.Len()) != refCands {
				t.Fatalf("%s: %d candidates, reference enumerates %d", label, cs.Len(), refCands)
			}
			checkIndex(t, label, cs, cfg)
			sel, err := cs.Select(cfg)
			if err != nil {
				t.Fatal(err)
			}
			got, err := sel.Prefix(sel.Cap())
			if err != nil {
				t.Fatal(err)
			}
			assertSameResult(t, label, got, want)
			selected += len(got.Entries)
		}
	}
	if selected == 0 {
		t.Error("no entries selected on any input — the differential is vacuous")
	}
}

// checkIndex verifies the index against its definition: candidates in
// strictly increasing word order (shorter prefix first), each occurrence
// list sorted and holding the candidate's words at every start, and the
// slots at each start naming its occurrences of lengths 1..extent, each
// extent as long as the markers allow.
func checkIndex(t *testing.T, label string, cs *Candidates, cfg Config) {
	t.Helper()
	text := cs.text
	words := func(c int32) []uint32 {
		p := cs.pos[cs.posOff[c]]
		return text[p : p+cs.klen[c]]
	}
	for c := int32(0); int(c) < cs.Len(); c++ {
		if c > 0 && slices.Compare(words(c-1), words(c)) >= 0 {
			t.Fatalf("%s: candidates %d and %d out of serial order", label, c-1, c)
		}
		occ := cs.pos[cs.posOff[c]:cs.posOff[c+1]]
		if len(occ) == 0 || !slices.IsSorted(occ) {
			t.Fatalf("%s: candidate %d occurrence list %v", label, c, occ)
		}
		for _, p := range occ {
			if !slices.Equal(text[p:p+cs.klen[c]], words(c)) {
				t.Fatalf("%s: candidate %d occurrence at %d holds other words", label, c, p)
			}
		}
	}
	for j := range text {
		ext := 0
		for ext < cs.maxLen && j+ext < len(text) && cfg.Compressible[j+ext] && (ext == 0 || !cfg.Leader[j+ext]) {
			ext++
		}
		if got := int(cs.startOff[j+1] - cs.startOff[j]); got != ext {
			t.Fatalf("%s: start %d has %d slots, want %d", label, j, got, ext)
		}
		for s := cs.startOff[j]; s < cs.startOff[j+1]; s++ {
			c, o := cs.slotCand[s], cs.slotOcc[s]
			if cs.klen[c] != s-cs.startOff[j]+1 || cs.pos[o] != int32(j) || o < cs.posOff[c] || o >= cs.posOff[c+1] {
				t.Fatalf("%s: slot %d at start %d names candidate %d occurrence %d", label, s, j, c, o)
			}
		}
	}
}
