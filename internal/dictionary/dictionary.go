// Package dictionary implements the paper's greedy dictionary construction
// (§3.1): enumerate candidate instruction sequences inside basic blocks,
// then repeatedly select the candidate with the largest immediate savings,
// replacing all of its non-overlapping occurrences, until the codeword
// space is exhausted or nothing saves bytes.
//
// Optimal selection is NP-complete [Storer77]; like the paper we are
// greedy. Because a candidate's savings only decreases as other selections
// consume its occurrences (and as codewords get longer with rank), a lazy
// re-evaluation max-heap finds the true maximum each round without
// rescanning every candidate.
//
// One selection engine serves every policy (index.go): an immutable
// candidate index (Candidates: sequences enumerated from the text's
// starts in sorted order, with an occurrence index so selections
// invalidate only the candidates they actually touch) and per-policy
// selections over it — the paper's greedy loop (Select, which Build
// runs) and the static-order ablation (SelectStatic). Each records a
// trace (Selection, selection.go) that serves every smaller entry budget
// as a prefix replay. Reference (below) is the direct transcription of
// the paper's algorithm, with its own enumeration and assembly, kept as
// the differential oracle: it and Build must produce byte-identical
// results on every input (enforced by differential and fuzz tests).
package dictionary

import (
	"container/heap"
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"repro/internal/stats"
	"repro/internal/trace"
)

// Config parameterizes one dictionary build.
type Config struct {
	// MaxEntries bounds the number of dictionary entries (the codeword
	// space). Zero or negative means unlimited.
	MaxEntries int

	// MaxEntryLen bounds instructions per entry (the paper sweeps 1..8).
	MaxEntryLen int

	// CodewordBits returns the encoded size of the codeword that will
	// represent the rank-th selected entry (rank counts from 0). It must
	// be non-decreasing in rank for the lazy heap to remain exact.
	CodewordBits func(rank int) int

	// EntryOverheadBits is the per-entry serialization overhead charged to
	// the dictionary, beyond the entry's raw instruction bytes.
	EntryOverheadBits int

	// Compressible marks words that may join a dictionary entry. Relative
	// branches are excluded by the compressor (§3.2.1); callers may
	// exclude more.
	Compressible []bool

	// Leader marks basic-block starts. Sequences must lie within a block:
	// they may begin at a leader but never span one, so branches can
	// target codewords but not the middle of an encoded sequence.
	Leader []bool

	// Stats, when non-nil, receives build observability counters:
	// dict.candidates (sequences enumerated), dict.heap_pops,
	// dict.reevaluations (stale candidates re-queued with refreshed
	// savings), dict.entries (entries selected), and — from the indexed
	// builder — dict.invalidations (occurrences killed by coverage) and
	// dict.dirty_skips (heap pops served from an exact cached use count,
	// no occurrence rescan). It also receives the
	// dict.selection_bits histogram: the savings (in bits) of each
	// selected entry at the moment of its selection — the paper's
	// usage-vs-size distribution. Counter values are implementation
	// observability; only the Result is contractual.
	Stats *stats.Recorder

	// Trace, when non-nil, is the parent span under which the build emits
	// its phase spans: dict.enumerate (candidate enumeration),
	// dict.select (the greedy selection loop) and dict.commit (assembling
	// the rewritten item sequence). Like Stats, it never affects the
	// Result.
	Trace *trace.Span
}

// Entry is one selected dictionary entry.
type Entry struct {
	Words []uint32
	// Uses is the number of occurrences replaced in the program.
	Uses int
}

// SizeBytes is the raw size of the entry's instructions.
func (e Entry) SizeBytes() int { return 4 * len(e.Words) }

// Item is one element of the rewritten program: either an uncompressed
// instruction or a codeword referencing a dictionary entry.
type Item struct {
	IsCodeword bool
	Entry      int    // valid when IsCodeword
	Word       uint32 // valid when !IsCodeword
	OrigIdx    int    // original text word index (sequence start for codewords)
}

// Result is the outcome of a build.
type Result struct {
	Entries []Entry
	Items   []Item

	// CoveredInsns counts original instructions absorbed into codewords.
	CoveredInsns int
}

// Build runs the paper's greedy algorithm over the program text: it
// enumerates the candidate index, selects from it and assembles the full
// Result through Prefix, the same code path a cached selection is
// replayed through.
func Build(text []uint32, cfg Config) (*Result, error) {
	cs, err := NewCandidates(text, cfg)
	if err != nil {
		return nil, err
	}
	s, err := cs.Select(cfg)
	if err != nil {
		return nil, err
	}
	sp := cfg.Trace.Child("dict.commit")
	defer sp.End()
	return s.Prefix(s.Len())
}

// check validates cfg for text and resolves the entry budget.
func check(text []uint32, cfg Config) (maxEntries int, err error) {
	if err := checkInput(text, cfg); err != nil {
		return 0, err
	}
	return checkSelect(cfg)
}

// checkInput validates the fields candidate enumeration depends on.
func checkInput(text []uint32, cfg Config) error {
	n := len(text)
	if len(cfg.Compressible) != n || len(cfg.Leader) != n {
		return fmt.Errorf("dictionary: marker slices must match text length %d", n)
	}
	if cfg.MaxEntryLen < 1 {
		return fmt.Errorf("dictionary: MaxEntryLen %d", cfg.MaxEntryLen)
	}
	return nil
}

// checkSelect validates the fields selection depends on and resolves the
// entry budget.
func checkSelect(cfg Config) (maxEntries int, err error) {
	if cfg.CodewordBits == nil {
		return 0, fmt.Errorf("dictionary: CodewordBits required")
	}
	if cfg.MaxEntries <= 0 {
		return math.MaxInt, nil
	}
	return cfg.MaxEntries, nil
}

// Reference is the paper's greedy algorithm as originally written, the
// differential oracle for Build: string-keyed enumeration, and every
// re-evaluation rescans the candidate's full occurrence list against the
// covered vector. It shares no code with the candidate index or Prefix,
// and must return a Result identical to Build's on every input.
func Reference(text []uint32, cfg Config) (*Result, error) {
	maxEntries, err := check(text, cfg)
	if err != nil {
		return nil, err
	}
	spE := cfg.Trace.Child("dict.enumerate")
	cands := enumerate(text, cfg)
	spE.SetInt("candidates", int64(len(cands))).End()
	cfg.Stats.Add("dict.candidates", int64(len(cands)))
	covered := make([]bool, len(text))
	coverEntry := newCoverEntry(len(text))
	res := &Result{}

	spS := cfg.Trace.Child("dict.select")
	rank := 0
	h := &candHeap{}
	heap.Init(h)
	for _, c := range cands {
		c.val = value(c, covered, cfg, rank)
		if c.val > 0 {
			heap.Push(h, c)
		}
	}
	for h.Len() > 0 && rank < maxEntries {
		c := heap.Pop(h).(*cand)
		cfg.Stats.Add("dict.heap_pops", 1)
		v := value(c, covered, cfg, rank)
		if v <= 0 {
			continue // stale and now worthless; drop
		}
		if v < c.val {
			// Stale: re-queue with the refreshed value. Values only
			// ever decrease, so when a popped candidate's value is
			// current it really is the maximum.
			c.val = v
			heap.Push(h, c)
			cfg.Stats.Add("dict.reevaluations", 1)
			continue
		}
		if selectCand(c, rank, covered, coverEntry, res) {
			cfg.Stats.ObserveValue("dict.selection_bits", int64(v))
			rank++
		}
	}
	cfg.Stats.Add("dict.entries", int64(rank))
	spS.SetInt("entries", int64(rank)).End()
	spC := cfg.Trace.Child("dict.commit")
	assembleItems(text, covered, coverEntry, res)
	spC.End()
	return res, nil
}

// selectCand replaces all non-overlapping free occurrences of c and
// records it as the entry with the given rank. It reports whether anything
// was replaced.
func selectCand(c *cand, rank int, covered []bool, coverEntry []int, res *Result) bool {
	uses := occScan(c, covered, func(p int) {
		for j := p; j < p+c.k; j++ {
			covered[j] = true
		}
		coverEntry[p] = rank
	})
	if uses == 0 {
		return false
	}
	res.Entries = append(res.Entries, Entry{Words: c.words, Uses: uses})
	res.CoveredInsns += uses * c.k
	return true
}

// newCoverEntry allocates the word→entry-rank vector (-1 = uncovered).
func newCoverEntry(n int) []int {
	ce := make([]int, n)
	for i := range ce {
		ce[i] = -1
	}
	return ce
}

// assembleItems builds Reference's rewritten item sequence from its
// coverage vectors.
func assembleItems(text []uint32, covered []bool, coverEntry []int, res *Result) {
	for i := range text {
		if e := coverEntry[i]; e >= 0 {
			res.Items = append(res.Items, Item{IsCodeword: true, Entry: e, OrigIdx: i})
			continue
		}
		if covered[i] {
			continue // interior of a replaced sequence
		}
		res.Items = append(res.Items, Item{Word: text[i], OrigIdx: i})
	}
}

// cand is one candidate sequence of Reference.
type cand struct {
	words  []uint32
	k      int    // sequence length in instructions
	pos    []int  // sorted occurrence start indices
	val    int    // cached savings in bits
	key    string // byte key, for deterministic ordering
	serial int    // tie-break rank
}

// enumerate collects every compressible sequence of length 1..MaxEntryLen
// that lies within a basic block.
func enumerate(text []uint32, cfg Config) []*cand {
	byKey := make(map[string]*cand)
	var keyBuf []byte
	for i := range text {
		if !cfg.Compressible[i] {
			continue
		}
		keyBuf = keyBuf[:0]
		for k := 1; k <= cfg.MaxEntryLen && i+k <= len(text); k++ {
			j := i + k - 1
			if !cfg.Compressible[j] {
				break
			}
			if k > 1 && cfg.Leader[j] {
				break // would span into the next basic block
			}
			var wb [4]byte
			binary.BigEndian.PutUint32(wb[:], text[j])
			keyBuf = append(keyBuf, wb[:]...)
			key := string(keyBuf)
			c := byKey[key]
			if c == nil {
				c = &cand{k: k, words: append([]uint32(nil), text[i:i+k]...)}
				byKey[key] = c
			}
			c.pos = append(c.pos, i)
		}
	}
	out := make([]*cand, 0, len(byKey))
	for key, c := range byKey {
		c.key = key
		out = append(out, c)
	}
	// Deterministic total order: map iteration is random, and the greedy
	// loop must break savings ties identically on every run (otherwise
	// parameter sweeps like Fig. 5 jitter).
	sort.Slice(out, func(i, j int) bool { return out[i].key < out[j].key })
	for serial, c := range out {
		c.serial = serial
	}
	return out
}

// free reports whether words p..p+k-1 are all uncovered.
func free(covered []bool, p, k int) bool {
	for j := p; j < p+k; j++ {
		if covered[j] {
			return false
		}
	}
	return true
}

// occScan is Reference's single occurrence walk, shared by
// value (count mode, nil commit) and selectCand (commit mode): visit the
// sorted occurrence list, skip starts overlapping an occurrence already
// accepted in this scan, skip starts touching covered words, accept the
// rest. The two modes cannot drift apart because committing only covers
// words at or before `last`, which later occurrences are already barred
// from by the overlap check.
func occScan(c *cand, covered []bool, commit func(p int)) int {
	uses := 0
	last := -1
	for _, p := range c.pos {
		if p < last+1 {
			continue
		}
		if !free(covered, p, c.k) {
			continue
		}
		if commit != nil {
			commit(p)
		}
		uses++
		last = p + c.k - 1
	}
	return uses
}

// value computes the candidate's current savings in bits.
func value(c *cand, covered []bool, cfg Config, rank int) int {
	return savings(occScan(c, covered, nil), c.k, cfg, rank)
}

// savings is the paper's §3.1 objective: each replaced occurrence trades
// 32·k instruction bits for one codeword, and the dictionary must store
// the sequence once plus serialization overhead.
func savings(uses, k int, cfg Config, rank int) int {
	if uses == 0 {
		return 0
	}
	cw := cfg.CodewordBits(rank)
	return uses*(32*k-cw) - (32*k + cfg.EntryOverheadBits)
}

// candHeap is Reference's max-heap over cached savings.
type candHeap []*cand

func (h candHeap) Len() int { return len(h) }
func (h candHeap) Less(i, j int) bool {
	if h[i].val != h[j].val {
		return h[i].val > h[j].val
	}
	return h[i].serial < h[j].serial
}
func (h candHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *candHeap) Push(x interface{}) { *h = append(*h, x.(*cand)) }
func (h *candHeap) Pop() interface{} {
	old := *h
	n := len(old)
	c := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return c
}
