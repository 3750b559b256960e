package dictionary_test

// Differential tests: the indexed greedy builder (the default Strategy)
// must produce byte-identical results to the reference transcription of
// the paper's algorithm on every synth benchmark and configuration — the
// paper's figures must not move by a single byte when the implementation
// changes. `make check` runs these explicitly (the `diff` target).

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
	cfg.Strategy = dictionary.Greedy
	cfg.Stats = rec
	got, err := dictionary.Build(text, cfg)
	if err != nil {
		t.Fatalf("indexed build: %v", err)
	}
	cfg.Strategy = dictionary.GreedyReference
	cfg.Stats = nil
	want, err := dictionary.Build(text, cfg)
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
			for _, c := range []string{"dict.dirty_skips", "dict.hash_collisions", "dict.heap_pops"} {
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
	for _, name := range synth.BenchmarkNames() {
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
					sel, err := dictionary.Select(text, cfg)
					if err != nil {
						t.Fatal(err)
					}
					for _, m := range []int{1, 16, 100, scheme.MaxEntries()} {
						if m > scheme.MaxEntries() {
							continue
						}
						got, err := sel.Prefix(m)
						if err != nil {
							t.Fatal(err)
						}
						ref := cfg
						ref.MaxEntries = m
						ref.Strategy = dictionary.GreedyReference
						want, err := dictionary.Build(text, ref)
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
// a full core.Compress with the indexed builder must produce the same
// image bytes as with the reference builder.
func TestCompressStrategyParity(t *testing.T) {
	p, err := synth.Generate("li")
	if err != nil {
		t.Fatal(err)
	}
	for _, scheme := range []codeword.Scheme{codeword.Baseline, codeword.Nibble} {
		indexed, err := core.Compress(p.Clone(), core.Options{Scheme: scheme})
		if err != nil {
			t.Fatal(err)
		}
		ref, err := core.Compress(p.Clone(), core.Options{Scheme: scheme, Strategy: dictionary.GreedyReference})
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
