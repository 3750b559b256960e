package dictionary_test

// Differential tests: every selection over the candidate index must
// produce byte-identical results to a direct transcription of its policy
// on every synth benchmark and configuration — Build against Reference
// (the paper's greedy algorithm), SelectStatic against the static-order
// transcription — so the paper's figures cannot move by a single byte
// when the implementation changes. `make check` runs these explicitly
// (the `diff` target).

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/codeword"
	"repro/internal/core"
	"repro/internal/dictionary"
	"repro/internal/stats"
	"repro/internal/synth"
)

// assertIdenticalBuilds runs both greedy implementations over one input
// and requires deeply equal Results. It returns the indexed builder's
// counters for callers that assert on observability.
func assertIdenticalBuilds(t *testing.T, text []uint32, cfg dictionary.Config) stats.Snapshot {
	t.Helper()
	rec := stats.New()
	cfg.Stats = rec
	got, err := dictionary.Build(text, cfg)
	if err != nil {
		t.Fatalf("indexed build: %v", err)
	}
	cfg.Stats = nil
	want, err := dictionary.Reference(text, cfg)
	if err != nil {
		t.Fatalf("reference build: %v", err)
	}
	assertEqualResults(t, "indexed vs reference", got, want)
	return rec.Snapshot()
}

// assertEqualResults requires deeply equal Entries, Items and
// CoveredInsns.
func assertEqualResults(t *testing.T, label string, got, want *dictionary.Result) {
	t.Helper()
	if !reflect.DeepEqual(got.Entries, want.Entries) {
		t.Fatalf("%s: entries diverge: %d entries vs %d", label, len(got.Entries), len(want.Entries))
	}
	if !reflect.DeepEqual(got.Items, want.Items) {
		t.Fatalf("%s: items diverge: %d items vs %d", label, len(got.Items), len(want.Items))
	}
	if got.CoveredInsns != want.CoveredInsns {
		t.Fatalf("%s: covered %d != %d", label, got.CoveredInsns, want.CoveredInsns)
	}
}

// matrixBenchmarks and matrixCaps span the prefix and static-order
// matrices: every benchmark at four entry budgets. The race detector
// slows that matrix to minutes, so under it they run the two smallest
// benchmarks at the smallest and largest budgets; `make diff` runs the
// full matrix without it.
func matrixBenchmarks() []string {
	if raceEnabled {
		return []string{"compress", "li"}
	}
	return synth.BenchmarkNames()
}

func matrixCaps(scheme codeword.Scheme) []int {
	if raceEnabled {
		return []int{1, scheme.MaxEntries()}
	}
	var caps []int
	for _, m := range []int{1, 16, 100, scheme.MaxEntries()} {
		if m <= scheme.MaxEntries() {
			caps = append(caps, m)
		}
	}
	return caps
}

func benchmarkInput(t *testing.T, name string) ([]uint32, dictionary.Config) {
	t.Helper()
	p, err := synth.Generate(name)
	if err != nil {
		t.Fatal(err)
	}
	comp, lead, err := core.Markers(p)
	if err != nil {
		t.Fatal(err)
	}
	return p.Text, dictionary.Config{
		MaxEntries:        codeword.Baseline.MaxEntries(),
		MaxEntryLen:       4,
		CodewordBits:      codeword.Baseline.CodewordBits,
		EntryOverheadBits: codeword.EntryOverheadBits,
		Compressible:      comp,
		Leader:            lead,
	}
}

// TestIndexedMatchesReferenceSynth is the acceptance differential: all
// eight benchmarks, baseline configuration.
func TestIndexedMatchesReferenceSynth(t *testing.T) {
	for _, name := range synth.BenchmarkNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			text, cfg := benchmarkInput(t, name)
			s := assertIdenticalBuilds(t, text, cfg)
			if s.Counter("dict.entries") == 0 {
				t.Error("no entries selected — differential is vacuous")
			}
			if s.Counter("dict.invalidations") == 0 {
				t.Error("no invalidations recorded — the inverted index did no work")
			}
			for _, c := range []string{"dict.dirty_skips", "dict.heap_pops"} {
				if _, ok := s.Counters[c]; !ok {
					t.Errorf("counter %s not recorded", c)
				}
			}
		})
	}
}

// TestIndexedMatchesReferenceSweep varies the parameters the paper sweeps
// (entry length, codeword budget, cost schedule) on the two smallest
// benchmarks.
func TestIndexedMatchesReferenceSweep(t *testing.T) {
	for _, name := range []string{"compress", "li"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			text, base := benchmarkInput(t, name)
			for _, maxLen := range []int{1, 2, 8} {
				cfg := base
				cfg.MaxEntryLen = maxLen
				assertIdenticalBuilds(t, text, cfg)
			}
			for _, maxEntries := range []int{16, 64, 0} {
				cfg := base
				cfg.MaxEntries = maxEntries
				assertIdenticalBuilds(t, text, cfg)
			}
			nibble := base
			nibble.CodewordBits = codeword.Nibble.CodewordBits
			nibble.MaxEntries = codeword.Nibble.MaxEntries()
			assertIdenticalBuilds(t, text, nibble)
		})
	}
}

// TestCappedBuildIsPrefix pins the prefix property that lets one
// selection serve every entry budget: the scheme-maximum greedy selection
// cut to m entries must equal the reference builder run with
// MaxEntries = m, an independent oracle that really stops at m. All eight
// benchmarks, the three headline schemes, entry lengths 4 and 8.
func TestCappedBuildIsPrefix(t *testing.T) {
	schemes := []codeword.Scheme{codeword.Baseline, codeword.Nibble, codeword.OneByte}
	for _, name := range matrixBenchmarks() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			text, base := benchmarkInput(t, name)
			for _, scheme := range schemes {
				for _, maxLen := range []int{4, 8} {
					cfg := base
					cfg.CodewordBits = scheme.CodewordBits
					cfg.MaxEntries = scheme.MaxEntries()
					cfg.MaxEntryLen = maxLen
					cs, err := dictionary.NewCandidates(text, cfg)
					if err != nil {
						t.Fatal(err)
					}
					sel, err := cs.Select(cfg)
					if err != nil {
						t.Fatal(err)
					}
					for _, m := range matrixCaps(scheme) {
						got, err := sel.Prefix(m)
						if err != nil {
							t.Fatal(err)
						}
						ref := cfg
						ref.MaxEntries = m
						want, err := dictionary.Reference(text, ref)
						if err != nil {
							t.Fatal(err)
						}
						assertEqualResults(t, fmt.Sprintf("%v len %d cap %d", scheme, maxLen, m), got, want)
					}
				}
			}
		})
	}
}

// TestStaticOrderMatchesTranscription: the static-order ablation selected
// from the candidate index must equal its direct transcription over the
// reference builder's candidates, on all eight benchmarks under three
// schemes, entry lengths 1, 4 and 8 and entry budgets from 1 to the
// scheme maximum.
func TestStaticOrderMatchesTranscription(t *testing.T) {
	schemes := []codeword.Scheme{codeword.Baseline, codeword.OneByte, codeword.Nibble}
	for _, name := range matrixBenchmarks() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			text, base := benchmarkInput(t, name)
			for _, maxLen := range []int{1, 4, 8} {
				cfg := base
				cfg.MaxEntryLen = maxLen
				cs, err := dictionary.NewCandidates(text, cfg)
				if err != nil {
					t.Fatal(err)
				}
				for _, scheme := range schemes {
					cfg.CodewordBits = scheme.CodewordBits
					for _, m := range matrixCaps(scheme) {
						cfg.MaxEntries = m
						sel, err := cs.SelectStatic(cfg)
						if err != nil {
							t.Fatal(err)
						}
						got, err := sel.Prefix(sel.Len())
						if err != nil {
							t.Fatal(err)
						}
						want, err := dictionary.StaticTranscription(text, cfg)
						if err != nil {
							t.Fatal(err)
						}
						assertEqualResults(t, fmt.Sprintf("%v len %d cap %d", scheme, maxLen, m), got, want)
					}
				}
			}
		})
	}
}

// TestCompressStrategyParity lifts the differential to the whole pipeline:
// a full core.Compress (the indexed greedy selection) must produce the
// same image bytes as the reference builder's selection assembled by
// core.CompressWith.
func TestCompressStrategyParity(t *testing.T) {
	p, err := synth.Generate("li")
	if err != nil {
		t.Fatal(err)
	}
	for _, scheme := range []codeword.Scheme{codeword.Baseline, codeword.Nibble} {
		opt := core.Options{Scheme: scheme}
		indexed, err := core.Compress(p.Clone(), opt)
		if err != nil {
			t.Fatal(err)
		}
		sel, err := core.NewCandidates(p, 4).SelectReference(opt)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := core.CompressWith(p.Clone(), sel, opt)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(indexed.Stream, ref.Stream) {
			t.Errorf("%v: stream bytes diverge", scheme)
		}
		if !reflect.DeepEqual(indexed.Entries, ref.Entries) {
			t.Errorf("%v: dictionaries diverge", scheme)
		}
		if indexed.CompressedBytes() != ref.CompressedBytes() {
			t.Errorf("%v: size %d != %d", scheme, indexed.CompressedBytes(), ref.CompressedBytes())
		}
	}
}
