package bench

import (
	"bytes"
	"context"
	"sync"
	"testing"

	"repro/internal/codeword"
	"repro/internal/core"
	"repro/internal/stats"
)

// TestImageKeyNormalization: MaxEntries 0 and an explicit scheme maximum
// must share one cache entry (they produce identical images), as must
// MaxEntryLen 0 and the explicit default of 4.
func TestImageKeyNormalization(t *testing.T) {
	zero := core.Options{Scheme: codeword.Baseline}
	explicit := core.Options{
		Scheme:      codeword.Baseline,
		MaxEntries:  codeword.Baseline.MaxEntries(),
		MaxEntryLen: 4,
	}
	if keyFor("x", zero) != keyFor("x", explicit) {
		t.Errorf("normalized keys differ: %+v vs %+v", keyFor("x", zero), keyFor("x", explicit))
	}
	over := core.Options{Scheme: codeword.OneByte, MaxEntries: 1 << 20, MaxEntryLen: 4}
	max := core.Options{Scheme: codeword.OneByte, MaxEntries: codeword.OneByte.MaxEntries(), MaxEntryLen: 4}
	if keyFor("x", over) != keyFor("x", max) {
		t.Error("beyond-maximum MaxEntries does not collapse onto the scheme maximum")
	}
	if keyFor("x", zero) == keyFor("y", zero) {
		t.Error("different benchmarks share a key")
	}
	negative := core.Options{Scheme: codeword.OneByte, MaxEntries: -1, MaxEntryLen: 4}
	if keyFor("x", negative) != keyFor("x", max) {
		t.Error("negative MaxEntries does not collapse onto the scheme maximum")
	}
}

func TestAliasedOptionsCompressOnce(t *testing.T) {
	rec := stats.New()
	c := NewCorpus().Bound(context.Background(), nil, rec)
	a, err := c.Image("compress", core.Options{Scheme: codeword.Baseline, MaxEntryLen: 4})
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Image("compress", core.Options{
		Scheme:      codeword.Baseline,
		MaxEntries:  codeword.Baseline.MaxEntries(),
		MaxEntryLen: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("aliased options did not share the cached image")
	}
	if got := rec.Snapshot().Counter("corpus.compressions"); got != 1 {
		t.Errorf("compressions = %d, want 1", got)
	}
}

// TestCorpusConcurrentImage hammers Corpus.Image from many goroutines with
// overlapping keys (including aliases of the same normalized key) and
// asserts exactly one compression per distinct key plus identical results
// for every requester. Run with -race to exercise the synchronization.
func TestCorpusConcurrentImage(t *testing.T) {
	rec := stats.New()
	c := NewCorpus().Bound(context.Background(), nil, rec)
	names := []string{"compress", "li"}
	opts := []core.Options{
		{Scheme: codeword.Baseline, MaxEntryLen: 4},
		{Scheme: codeword.Baseline, MaxEntries: codeword.Baseline.MaxEntries(), MaxEntryLen: 4}, // alias of the previous
		{Scheme: codeword.Baseline, MaxEntries: 64, MaxEntryLen: 4},
		{Scheme: codeword.Nibble, MaxEntryLen: 4},
		{Scheme: codeword.Nibble}, // alias of the previous (MaxEntryLen 0 -> 4)
		{Scheme: codeword.OneByte, MaxEntries: 16, MaxEntryLen: 4},
	}
	distinctKeys := map[imageKey]bool{}
	for _, name := range names {
		for _, opt := range opts {
			distinctKeys[keyFor(name, opt)] = true
		}
	}

	const workers = 16
	images := make([][]*core.Image, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for _, name := range names {
				for _, opt := range opts {
					img, err := c.Image(name, opt)
					if err != nil {
						t.Errorf("worker %d: %v", w, err)
						return
					}
					images[w] = append(images[w], img)
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	snap := rec.Snapshot()
	if got := snap.Counter("corpus.compressions"); got != int64(len(distinctKeys)) {
		t.Errorf("compressions = %d, want %d (one per distinct normalized key)", got, len(distinctKeys))
	}
	if got := snap.Counter("corpus.generations"); got != int64(len(names)) {
		t.Errorf("generations = %d, want %d", got, len(names))
	}
	for w := 1; w < workers; w++ {
		for i := range images[0] {
			a, b := images[0][i], images[w][i]
			if a != b {
				t.Fatalf("worker %d item %d: got a different image pointer", w, i)
			}
			if !bytes.Equal(a.Stream, b.Stream) {
				t.Fatalf("worker %d item %d: streams differ", w, i)
			}
		}
	}
}

func TestCorpusCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c := NewCorpus().Bound(ctx, nil, nil)
	if _, err := c.Program("compress"); err == nil {
		t.Error("Program on a cancelled view did not fail")
	}
	if _, err := c.Image("compress", core.Options{Scheme: codeword.Baseline}); err == nil {
		t.Error("Image on a cancelled view did not fail")
	}
	// The caches must not have latched the cancellation: a fresh view over
	// the same state works.
	fresh := NewCorpus()
	fresh.state = c.state
	if _, err := fresh.Program("compress"); err != nil {
		t.Errorf("cache poisoned by cancellation: %v", err)
	}
}

func TestEachParallelMatchesSequential(t *testing.T) {
	sem := make(chan struct{}, 4)
	sem <- struct{}{} // the caller's slot, as the engine would hold it
	c := NewCorpus().Bound(context.Background(), sem, nil)
	const n = 100
	seen := make([]int, n)
	if err := c.each(n, func(i int) error { seen[i] = i * i; return nil }); err != nil {
		t.Fatal(err)
	}
	for i, v := range seen {
		if v != i*i {
			t.Fatalf("item %d not executed (got %d)", i, v)
		}
	}
}

// TestForkEmptiesSelectionCaches: a fork shares the generated programs
// but neither the selections nor the candidate indexes, so a benchmark
// iteration on a fork times a real dictionary build.
func TestForkEmptiesSelectionCaches(t *testing.T) {
	opt := core.Options{Scheme: codeword.Nibble, MaxEntryLen: 4}
	c := NewCorpus()
	if _, err := c.Image("compress", opt); err != nil {
		t.Fatal(err)
	}
	rec := stats.New()
	f := c.Fork().Bound(context.Background(), nil, rec)
	if len(f.state.selections) != 0 || len(f.state.indexes) != 0 {
		t.Fatalf("fork starts with %d selections and %d indexes cached", len(f.state.selections), len(f.state.indexes))
	}
	if _, err := f.Image("compress", opt); err != nil {
		t.Fatal(err)
	}
	snap := rec.Snapshot()
	if got := snap.Counter("corpus.selections"); got != 1 {
		t.Errorf("selections on the fork = %d, want 1", got)
	}
	if snap.Counter("dict.candidates") == 0 {
		t.Error("the fork's selection did not enumerate candidates")
	}
	if got := snap.Counter("corpus.generations"); got != 0 {
		t.Errorf("generations on the fork = %d, want 0 (programs are shared)", got)
	}
}

// TestConcurrentCapsShareOneSelection: concurrent images of one program,
// scheme and entry length under different budgets run exactly one
// selection, and a second scheme reuses the first one's candidate index.
// Each image is the direct compression under its budget.
func TestConcurrentCapsShareOneSelection(t *testing.T) {
	rec := stats.New()
	c := NewCorpus().Bound(context.Background(), nil, rec)
	caps := []int{1, 16, 64, 256, 0}
	schemes := []codeword.Scheme{codeword.Baseline, codeword.Nibble}
	const workers = 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		for _, s := range schemes {
			for _, m := range caps {
				wg.Add(1)
				go func(opt core.Options) {
					defer wg.Done()
					if _, err := c.Image("li", opt); err != nil {
						t.Error(err)
					}
				}(core.Options{Scheme: s, MaxEntries: m, MaxEntryLen: 4})
			}
		}
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	snap := rec.Snapshot()
	if got := snap.Counter("corpus.selections"); got != int64(len(schemes)) {
		t.Errorf("selections = %d, want %d (one per scheme)", got, len(schemes))
	}
	if got := snap.Phase("core.build").Count; got != int64(len(schemes)) {
		t.Errorf("core.build ran %d times, want %d", got, len(schemes))
	}
	if got := snap.Phase("core.analyze").Count; got != 1 {
		t.Errorf("core.analyze ran %d times, want 1 (the schemes share one index)", got)
	}
	if got := snap.Counter("corpus.compressions"); got != int64(len(schemes)*len(caps)) {
		t.Errorf("compressions = %d, want %d", got, len(schemes)*len(caps))
	}
	p, err := c.Program("li")
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range schemes {
		for _, m := range caps {
			opt := core.Options{Scheme: s, MaxEntries: m, MaxEntryLen: 4}
			img, err := c.Image("li", opt)
			if err != nil {
				t.Fatal(err)
			}
			want, err := core.Compress(p.Clone(), opt)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(img.Stream, want.Stream) || len(img.Entries) != len(want.Entries) {
				t.Errorf("%v cap %d: cached image differs from a direct compression", s, m)
			}
		}
	}
}

// TestCompressWithRejectsMismatchedSelection: a selection only serves
// the scheme, entry length and program it was made for, and
// budgets up to its own cap.
func TestCompressWithRejectsMismatchedSelection(t *testing.T) {
	c := NewCorpus()
	p, err := c.Program("compress")
	if err != nil {
		t.Fatal(err)
	}
	nibble := core.Options{Scheme: codeword.Nibble, MaxEntryLen: 4}
	sel, err := c.Selection("compress", nibble)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.CompressWith(p.Clone(), sel, nibble); err != nil {
		t.Fatalf("matching selection rejected: %v", err)
	}
	for label, opt := range map[string]core.Options{
		"scheme":       {Scheme: codeword.Baseline, MaxEntryLen: 4},
		"entry length": {Scheme: codeword.Nibble, MaxEntryLen: 8},
	} {
		if _, err := core.CompressWith(p.Clone(), sel, opt); err == nil {
			t.Errorf("selection with a mismatched %s accepted", label)
		}
	}
	li, err := c.Program("li")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.CompressWith(li.Clone(), sel, nibble); err == nil {
		t.Error("selection for compress accepted for li")
	}

	small, err := core.SelectDictionary(p, core.Options{Scheme: codeword.Baseline, MaxEntries: 16})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.CompressWith(p.Clone(), small, core.Options{Scheme: codeword.Baseline, MaxEntries: 16}); err != nil {
		t.Errorf("budget equal to the cap rejected: %v", err)
	}
	if _, err := core.CompressWith(p.Clone(), small, core.Options{Scheme: codeword.Baseline, MaxEntries: 17}); err == nil {
		t.Error("selection capped at 16 accepted for a budget of 17")
	}
}
