// The selection engine: the paper's §3.1 algorithm split into an
// immutable candidate index (Candidates) and a cheap per-build selection
// over it, so one enumeration serves every selection — every policy,
// codeword schedule and entry budget — over the same text and entry
// length.
//
// Three mechanisms replace Reference's hot spots:
//
//  1. Enumeration sorts instead of hashing. A candidate occurrence is a
//     prefix of the longest in-block sequence at its start, so ordering
//     the compressible starts by those sequences (word-lexicographic, cut
//     at MaxEntryLen, a leader or an incompressible word) — radix passes
//     over dense word ids, a suffix array truncated to MaxEntryLen words
//     — puts each candidate's occurrences in one run of starts, and the
//     runs, read off the longest common prefixes of neighbours, open in
//     serial order. No key is allocated, hashed or compared by sort:
//     for n words, entry length L and V distinct words (V ≤ n) the cost
//     is L counting passes of O(n + V) each, plus the two 2^16-bucket
//     passes that rank the words.
//
//  2. A start-position → occurrences inverted index makes invalidation
//     exact: the moment a selection covers a word range, every candidate
//     occurrence overlapping that range is tombstoned and its candidate
//     marked dirty. Coverage is therefore fully encoded in the tombstones
//     — a live occurrence is free by construction — so re-valuing a
//     candidate never walks covered words at all.
//
//  3. Each candidate carries its live-occurrence count and a cached
//     greedy use count that stays exact while the candidate is clean.
//     A heap pop of a clean candidate recomputes savings from the cached
//     uses in O(1) (dict.dirty_skips); only dirty candidates rescan their
//     occurrence list, with a skip pointer past the leading tombstones so
//     dead occurrences are skipped once and never revisited — the "next
//     free position" role the covered-word walk played in the reference.
//
// The index is flat int32 arrays with no per-candidate pointers, and the
// tombstones, use counts and heap live in the per-build selector, so the
// index is never written after construction and concurrent selections
// may share it.
//
// The heap discipline is unchanged from Reference: cached savings are
// upper bounds (uses only shrink, CodewordBits is non-decreasing in rank),
// so a popped candidate whose exact value matches its cached key is the
// true maximum of the round, with ties broken by the same deterministic
// serial order (word-lexicographic, identical to the reference's
// big-endian byte-key sort). Build and Reference must produce
// byte-identical Results on every input; differential and fuzz tests
// enforce it.
package dictionary

import (
	"fmt"
	"math"
	"sort"
)

// Candidates is the enumeration half of the selection engine: every
// compressible in-block sequence of length 1..MaxEntryLen of one text,
// with its occurrence list and the inverted start-position index that
// selection invalidates through. It depends only on the text, the
// Compressible and Leader markers and MaxEntryLen — not on the codeword
// schedule or the entry budget — so one index serves every selection over
// the same program and entry length. It is immutable and safe for
// concurrent Select calls. It references the text instead of copying it:
// callers must not modify the text while the index, or a Selection made
// from it, is in use.
type Candidates struct {
	text   []uint32
	maxLen int

	// Candidate c, numbered in serial (word-lexicographic) order, has
	// length klen[c] and sorted occurrence starts pos[posOff[c]:posOff[c+1]];
	// its words are text[s:s+klen[c]] at any of those starts s.
	klen   []int32
	posOff []int32
	pos    []int32

	// The occurrences starting at word j are exactly the lengths
	// 1..startOff[j+1]-startOff[j] (enumeration extends a sequence until
	// an incompressible word or a leader stops it), so slot
	// startOff[j]+k-1 is the length-k occurrence at j: slotOcc holds its
	// index into pos and slotCand its candidate.
	startOff []int32
	slotOcc  []int32
	slotCand []int32
}

// NewCandidates enumerates the candidate index of text under cfg's
// Compressible, Leader and MaxEntryLen; the other Config fields are not
// consulted except Stats and Trace, which receive dict.candidates and
// the dict.enumerate span.
func NewCandidates(text []uint32, cfg Config) (*Candidates, error) {
	if err := checkInput(text, cfg); err != nil {
		return nil, err
	}
	if len(text) >= math.MaxInt32 {
		return nil, fmt.Errorf("dictionary: text of %d words exceeds the index's int32 positions", len(text))
	}
	sp := cfg.Trace.Child("dict.enumerate")
	cs := enumerateIndexed(text, cfg)
	sp.SetInt("candidates", int64(cs.Len())).End()
	cfg.Stats.Add("dict.candidates", int64(cs.Len()))
	return cs, nil
}

// Len is the number of distinct candidate sequences.
func (cs *Candidates) Len() int { return len(cs.klen) }

// Select runs the paper's greedy algorithm over the index; cfg supplies
// the entry budget, the codeword schedule and the sinks, and its
// Compressible, Leader and MaxEntryLen fields are ignored in favour of the
// index's own.
func (cs *Candidates) Select(cfg Config) (*Selection, error) {
	maxEntries, err := checkSelect(cfg)
	if err != nil {
		return nil, err
	}
	return cs.greedy(cfg, maxEntries), nil
}

// SelectStatic runs the static-order ablation over the index, with cfg
// read as for Select: candidates are ranked once by their savings at rank
// 0 with nothing covered (ties by serial), then taken in that fixed order
// at their current savings, skipping those no longer worth an entry. The
// difference from Select is what greedy's re-evaluation buys.
func (cs *Candidates) SelectStatic(cfg Config) (*Selection, error) {
	maxEntries, err := checkSelect(cfg)
	if err != nil {
		return nil, err
	}
	g := cs.newSelector(maxEntries)
	sp := cfg.Trace.Child("dict.select")
	order := make([]int32, cs.Len())
	for c := range order {
		order[c] = int32(c)
		g.uses[c] = g.initialUses(int32(c))
		g.val[c] = savings(int(g.uses[c]), int(cs.klen[c]), cfg, 0)
	}
	sort.SliceStable(order, func(i, j int) bool { return g.val[order[i]] > g.val[order[j]] })
	rank := 0
	for _, c := range order {
		if rank >= maxEntries {
			break
		}
		if g.dirty[c] {
			g.rescan(c)
		}
		v := savings(int(g.uses[c]), int(cs.klen[c]), cfg, rank)
		if v <= 0 {
			continue
		}
		g.commit(c, rank)
		cfg.Stats.ObserveValue("dict.selection_bits", int64(v))
		rank++
	}
	cfg.Stats.Add("dict.invalidations", g.invalidations)
	cfg.Stats.Add("dict.entries", int64(rank))
	sp.SetInt("entries", int64(rank)).End()
	return g.sel, nil
}

// enumerateIndexed builds the index from the compressible starts sorted
// by their words. Every candidate occurrence is a prefix of its start's
// maximal sequence, so once the starts are ordered by those sequences
// (each cut to its extent, shorter first) the occurrences of every
// candidate are one contiguous run of starts, and candidates first appear
// in serial order: a start opens a new candidate for each length beyond
// its longest common prefix with the start before it, and reuses the
// predecessor's candidates up to that prefix. The occurrence lists are
// then laid out by a pass in text order, which keeps every list sorted.
func enumerateIndexed(text []uint32, cfg Config) *Candidates {
	n := len(text)
	cs := &Candidates{
		text:     text,
		maxLen:   cfg.MaxEntryLen,
		startOff: make([]int32, n+1),
	}
	// ext[i] is the length of the longest sequence starting at i: it runs
	// until an incompressible word, a leader (i's own aside, since a
	// sequence may begin a block) or MaxEntryLen stops it.
	ext := make([]int32, n)
	run, maxExt := int32(0), int32(0)
	for i := n - 1; i >= 0; i-- {
		switch {
		case !cfg.Compressible[i]:
			run = 0
		case i+1 < n && !cfg.Leader[i+1]:
			run++
		default:
			run = 1
		}
		ext[i] = min(run, int32(cs.maxLen))
		maxExt = max(maxExt, ext[i])
	}
	starts := make([]int32, 0, n)
	for i := 0; i < n; i++ {
		cs.startOff[i+1] = cs.startOff[i] + ext[i]
		if ext[i] > 0 {
			starts = append(starts, int32(i))
		}
	}

	// Rank the distinct words to dense ids 1..V in word order (two 16-bit
	// radix passes over the starts); id 0 pads a sequence past its extent,
	// so a sequence sorts before its extensions.
	buf := make([]int32, len(starts))
	key := make([]int32, n) // per word position: its start's key in the current pass
	count := make([]int32, 1<<16)
	for i, w := range text {
		key[i] = int32(w & 0xffff)
	}
	countSort(buf, starts, key, count)
	for i, w := range text {
		key[i] = int32(w >> 16)
	}
	countSort(starts, buf, key, count)
	id := make([]int32, n)
	var v int32
	for k, i := range starts {
		if k == 0 || text[i] != text[starts[k-1]] {
			v++
		}
		id[i] = v
	}

	// Sort the starts by their extent-cut id sequences: one stable pass
	// per word position, least significant first.
	if int(v)+1 > len(count) {
		count = make([]int32, v+1)
	}
	count = count[:v+1]
	for d := maxExt - 1; d >= 0; d-- {
		for i, e := range ext {
			key[i] = 0
			if d < e {
				key[i] = id[i+int(d)]
			}
		}
		countSort(buf, starts, key, count)
		starts, buf = buf, starts
	}

	// lcp[k] is the common prefix of the k-th sorted start's sequence and
	// its predecessor's; each start opens ext-lcp candidates.
	lcp := buf
	m := 0
	for k, i := range starts {
		l := int32(0)
		if k > 0 {
			p := starts[k-1]
			for lim := min(ext[i], ext[p]); l < lim && id[i+l] == id[p+l]; l++ {
			}
		}
		lcp[k] = l
		m += int(ext[i] - l)
	}
	cs.klen = make([]int32, m)
	occs := make([]int32, m) // occurrences per candidate
	slotCand := make([]int32, cs.startOff[n])
	cur := make([]int32, maxExt+1) // cur[k]: the candidate of length k at the current start
	c := int32(0)
	for k, i := range starts {
		for l := lcp[k] + 1; l <= ext[i]; l++ {
			cs.klen[c] = l
			cur[l] = c
			c++
		}
		for l := int32(1); l <= ext[i]; l++ {
			slotCand[cs.startOff[i]+l-1] = cur[l]
			occs[cur[l]]++
		}
	}
	ext, key, id, starts, buf, lcp, count = nil, nil, nil, nil, nil, nil, nil // collectable before the index arrays below are allocated

	cs.posOff = make([]int32, m+1)
	for c := 0; c < m; c++ {
		cs.posOff[c+1] = cs.posOff[c] + occs[c]
	}
	fill := occs // next free slot of each candidate's list
	copy(fill, cs.posOff[:m])
	cs.pos = make([]int32, len(slotCand))
	cs.slotOcc = make([]int32, len(slotCand))
	cs.slotCand = slotCand
	for j := 0; j < n; j++ {
		for s := cs.startOff[j]; s < cs.startOff[j+1]; s++ {
			o := fill[slotCand[s]]
			fill[slotCand[s]]++
			cs.pos[o] = int32(j)
			cs.slotOcc[s] = o
		}
	}
	return cs
}

// countSort stably distributes src into dst by key[x] of each element x,
// every key below len(count); count is scratch.
func countSort(dst, src, key, count []int32) {
	clear(count)
	for _, x := range src {
		count[key[x]]++
	}
	sum := int32(0)
	for b, c := range count {
		count[b] = sum
		sum += c
	}
	for _, x := range src {
		k := key[x]
		dst[count[k]] = x
		count[k]++
	}
}

// selector is the per-build state of one selection over a shared index:
// occurrence tombstones, per-candidate cached counts and the greedy lazy
// max-heap, plus the Selection being recorded.
type selector struct {
	cs *Candidates

	dead  []bool  // per occurrence: tombstoned by a cover
	from  []int32 // per candidate: scans start here, the first possibly-live occurrence
	live  []int32 // per candidate: occurrences not yet tombstoned
	uses  []int32 // per candidate: cached greedy non-overlap count; exact while !dirty
	val   []int   // per candidate: heap key, savings computed from uses at a past rank
	dirty []bool  // per candidate: an occurrence died since uses was computed
	gone  []bool  // per candidate: worthless, fully covered, or already selected
	heap  []int32 // max-heap of candidates by (val desc, serial asc)

	sel           *Selection
	invalidations int64
}

// newSelector returns the state of a fresh selection under the given
// entry budget: nothing covered, every occurrence live.
func (cs *Candidates) newSelector(maxEntries int) *selector {
	m, occs := cs.Len(), len(cs.pos)
	g := &selector{
		cs:    cs,
		dead:  make([]bool, occs),
		from:  make([]int32, m),
		live:  make([]int32, m),
		uses:  make([]int32, m),
		val:   make([]int, m),
		dirty: make([]bool, m),
		gone:  make([]bool, m),
		sel:   newSelection(cs.text, maxEntries),
	}
	for c := 0; c < m; c++ {
		g.from[c] = cs.posOff[c]
		g.live[c] = cs.posOff[c+1] - cs.posOff[c]
	}
	return g
}

// greedy runs the indexed greedy algorithm. Its Selection is
// byte-identical to Reference's.
func (cs *Candidates) greedy(cfg Config, maxEntries int) *Selection {
	g := cs.newSelector(maxEntries)
	g.heap = make([]int32, 0, cs.Len())
	spS := cfg.Trace.Child("dict.select")
	rank := 0
	var pops, reevals, dirtySkips int64
	for c := int32(0); int(c) < cs.Len(); c++ {
		g.uses[c] = g.initialUses(c)
		g.val[c] = savings(int(g.uses[c]), int(cs.klen[c]), cfg, rank)
		if g.val[c] > 0 {
			g.heap = append(g.heap, c)
		}
	}
	for i := len(g.heap)/2 - 1; i >= 0; i-- {
		g.down(i)
	}
	for len(g.heap) > 0 && rank < maxEntries {
		c := g.pop()
		pops++
		if g.gone[c] {
			continue
		}
		if g.dirty[c] {
			g.rescan(c)
		} else {
			dirtySkips++
		}
		v := savings(int(g.uses[c]), int(cs.klen[c]), cfg, rank)
		if v <= 0 {
			g.gone[c] = true
			continue
		}
		if v < g.val[c] {
			g.val[c] = v
			g.push(c)
			reevals++
			continue
		}
		g.commit(c, rank)
		cfg.Stats.ObserveValue("dict.selection_bits", int64(v))
		g.gone[c] = true
		rank++
	}
	cfg.Stats.Add("dict.heap_pops", pops)
	cfg.Stats.Add("dict.reevaluations", reevals)
	cfg.Stats.Add("dict.dirty_skips", dirtySkips)
	cfg.Stats.Add("dict.invalidations", g.invalidations)
	cfg.Stats.Add("dict.entries", int64(rank))
	spS.SetInt("entries", int64(rank)).End()
	return g.sel
}

// initialUses is the greedy non-overlap count before anything is covered.
func (g *selector) initialUses(c int32) int32 {
	cs := g.cs
	var uses int32
	last := int32(-1)
	for _, p := range cs.pos[cs.posOff[c]:cs.posOff[c+1]] {
		if p <= last {
			continue
		}
		uses++
		last = p + cs.klen[c] - 1
	}
	return uses
}

// rescan recomputes the cached use count of a dirty candidate. The skip
// pointer advances past the leading dead run, so repeated rescans of a
// mostly-consumed candidate start at its first live occurrence instead of
// re-walking covered territory. Every live occurrence is free by
// construction: cover tombstones all occurrences overlapping a range at
// the moment the range is covered.
func (g *selector) rescan(c int32) {
	cs := g.cs
	var uses int32
	last := int32(-1)
	from := g.from[c]
	atFront := true
	for o := g.from[c]; o < cs.posOff[c+1]; o++ {
		if g.dead[o] {
			if atFront {
				from = o + 1
			}
			continue
		}
		atFront = false
		p := cs.pos[o]
		if p <= last {
			continue
		}
		uses++
		last = p + cs.klen[c] - 1
	}
	g.from[c] = from
	g.uses[c] = uses
	g.dirty[c] = false
}

// commit records c as the entry with the given rank, covering each
// accepted occurrence and invalidating — through the inverted index —
// exactly the occurrences that overlap the newly covered words.
func (g *selector) commit(c int32, rank int) {
	cs := g.cs
	k := cs.klen[c]
	uses := 0
	first, last := int32(-1), int32(-1)
	for o := g.from[c]; o < cs.posOff[c+1]; o++ {
		p := cs.pos[o]
		if g.dead[o] || p <= last { // tombstoned (possibly by an earlier cover in this loop) or overlapping
			continue
		}
		g.cover(p, k, int32(rank))
		if first < 0 {
			first = p
		}
		uses++
		last = p + k - 1
	}
	g.sel.add(first, k, int32(uses))
}

// cover assigns words p..p+k-1 to the entry of the given rank and
// tombstones every candidate occurrence overlapping that range: an
// occurrence starting at j with length kc overlaps iff j < p+k and
// j+kc > p, so only starts in [p-maxLen+1, p+k) need visiting, and at a
// start j < p only the lengths kc > p-j.
func (g *selector) cover(p, k, rank int32) {
	cs := g.cs
	for j := p; j < p+k; j++ {
		g.sel.rankOf[j] = rank
	}
	lo := p - int32(cs.maxLen) + 1
	if lo < 0 {
		lo = 0
	}
	for j := lo; j < p+k; j++ {
		s := cs.startOff[j]
		if j < p {
			s += p - j
		}
		for ; s < cs.startOff[j+1]; s++ {
			o := cs.slotOcc[s]
			if g.dead[o] {
				continue
			}
			g.dead[o] = true
			c := cs.slotCand[s]
			g.live[c]--
			g.dirty[c] = true
			if g.live[c] == 0 {
				g.gone[c] = true
			}
			g.invalidations++
		}
	}
}

// less orders the heap: larger cached savings first, lower serial on
// ties — the same discipline as Reference's heap.
func (g *selector) less(a, b int32) bool {
	if g.val[a] != g.val[b] {
		return g.val[a] > g.val[b]
	}
	return a < b
}

func (g *selector) push(c int32) {
	g.heap = append(g.heap, c)
	h := g.heap
	for i := len(h) - 1; i > 0; {
		parent := (i - 1) / 2
		if !g.less(h[i], h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func (g *selector) pop() int32 {
	h := g.heap
	top, last := h[0], len(h)-1
	h[0] = h[last]
	g.heap = h[:last]
	g.down(0)
	return top
}

func (g *selector) down(i int) {
	h := g.heap
	for {
		l := 2*i + 1
		if l >= len(h) {
			return
		}
		best := l
		if r := l + 1; r < len(h) && g.less(h[r], h[l]) {
			best = r
		}
		if !g.less(h[best], h[i]) {
			return
		}
		h[i], h[best] = h[best], h[i]
		i = best
	}
}
