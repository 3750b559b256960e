// The selection engine: the paper's §3.1 algorithm split into an
// immutable candidate index (Candidates) and a cheap per-build selection
// over it, so one enumeration serves every selection — every policy,
// codeword schedule and entry budget — over the same text and entry
// length.
//
// Three mechanisms replace Reference's hot spots:
//
//  1. Enumeration interns candidates behind a rolling 64-bit FNV-1a hash
//     of the big-endian instruction words — no per-(position,length)
//     string key is ever allocated. Hash buckets chain and compare the
//     actual words, so a 64-bit collision can never merge two distinct
//     sequences (dict.hash_collisions counts them).
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

// FNV-1a 64-bit parameters.
const (
	fnvOffset64 uint64 = 14695981039346656037
	fnvPrime64  uint64 = 1099511628211
)

// rollHash folds one big-endian instruction word into the rolling
// candidate hash — byte-for-byte the FNV-1a hash of Reference's string
// key, with zero allocation.
func rollHash(h uint64, w uint32) uint64 {
	h = (h ^ uint64(w>>24)) * fnvPrime64
	h = (h ^ uint64(w>>16&0xff)) * fnvPrime64
	h = (h ^ uint64(w>>8&0xff)) * fnvPrime64
	h = (h ^ uint64(w&0xff)) * fnvPrime64
	return h
}

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

	collisions int64
}

// NewCandidates enumerates the candidate index of text under cfg's
// Compressible, Leader and MaxEntryLen; the other Config fields are not
// consulted except Stats and Trace, which receive dict.candidates,
// dict.hash_collisions and the dict.enumerate span.
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
	cfg.Stats.Add("dict.hash_collisions", cs.collisions)
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

// enumerateIndexed builds the index in two passes. The first interns
// every sequence by rolling hash and records, per occurrence slot, the
// candidate in creation order. The second renumbers candidates into
// serial order and lays the occurrence lists out contiguously; walking
// slots in start order keeps every list sorted.
func enumerateIndexed(text []uint32, cfg Config) *Candidates {
	n := len(text)
	cs := &Candidates{
		text:     text,
		maxLen:   cfg.MaxEntryLen,
		startOff: make([]int32, n+1),
	}
	hashMask := ^uint64(0)
	if cfg.degradeHash {
		hashMask = 0xff
	}
	// Per candidate in creation order: first start, length, occurrence
	// count and the next candidate in its hash bucket (-1 ends a chain).
	var first, klen, count, next []int32
	byHash := make(map[uint64]int32, n)
	slots := make([]int32, 0, 2*n)
	for i := 0; i < n; i++ {
		cs.startOff[i] = int32(len(slots))
		if !cfg.Compressible[i] {
			continue
		}
		h := fnvOffset64
		for k := 1; k <= cs.maxLen && i+k <= n; k++ {
			j := i + k - 1
			if !cfg.Compressible[j] {
				break
			}
			if k > 1 && cfg.Leader[j] {
				break // would span into the next basic block
			}
			h = rollHash(h, text[j])
			head, ok := byHash[h&hashMask]
			id := int32(-1)
			if ok {
				for t := head; t >= 0; t = next[t] {
					if int(klen[t]) == k && equalWords(text[first[t]:int(first[t])+k], text[i:i+k]) {
						id = t
						break
					}
				}
			}
			if id < 0 {
				id = int32(len(first))
				if ok {
					cs.collisions++
				} else {
					head = -1
				}
				first = append(first, int32(i))
				klen = append(klen, int32(k))
				count = append(count, 0)
				next = append(next, head)
				byHash[h&hashMask] = id
			}
			count[id]++
			slots = append(slots, id)
		}
	}
	cs.startOff[n] = int32(len(slots))
	byHash = nil // collectable before the index arrays below are allocated

	// Deterministic serials matching the reference builder exactly: a
	// word-lexicographic compare (shorter prefix first) orders candidates
	// identically to sorting their big-endian byte keys.
	m := len(first)
	order := make([]int32, m)
	for i := range order {
		order[i] = int32(i)
	}
	words := func(t int32) []uint32 { return text[first[t] : first[t]+klen[t]] }
	mergeSort(order, make([]int32, m), func(a, b int32) bool { return lessWords(words(a), words(b)) })

	serialOf := next // the bucket chains are done with; reuse their storage
	cs.klen = make([]int32, m)
	cs.posOff = make([]int32, m+1)
	for s, t := range order {
		serialOf[t] = int32(s)
		cs.klen[s] = klen[t]
		cs.posOff[s+1] = cs.posOff[s] + count[t]
	}
	fill := count // next free slot of each candidate's list, by serial
	copy(fill, cs.posOff[:m])
	cs.pos = make([]int32, len(slots))
	cs.slotOcc = make([]int32, len(slots))
	cs.slotCand = slots // renumbered in place below
	for j := 0; j < n; j++ {
		for s := cs.startOff[j]; s < cs.startOff[j+1]; s++ {
			c := serialOf[slots[s]]
			o := fill[c]
			fill[c]++
			cs.pos[o] = int32(j)
			cs.slotOcc[s] = o
			cs.slotCand[s] = c
		}
	}
	return cs
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

// equalWords reports a == b elementwise.
func equalWords(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// lessWords is the word-lexicographic order (shorter prefix first) —
// identical to comparing the sequences' big-endian byte strings.
func lessWords(a, b []uint32) bool {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

// mergeSort sorts s by less using buf (len(buf) >= len(s)) as scratch.
// Keys are unique, so any comparison sort yields the same total order;
// this is a bespoke merge sort to avoid sort.Slice's interface overhead
// on the index's one O(m log m) step.
func mergeSort(s, buf []int32, less func(a, b int32) bool) {
	if len(s) < 2 {
		return
	}
	m := len(s) / 2
	mergeSort(s[:m], buf[:m], less)
	mergeSort(s[m:], buf[m:], less)
	copy(buf, s)
	i, j := 0, m
	for k := range s {
		switch {
		case i >= m:
			s[k] = buf[j]
			j++
		case j >= len(s):
			s[k] = buf[i]
			i++
		case less(buf[j], buf[i]):
			s[k] = buf[j]
			j++
		default:
			s[k] = buf[i]
			i++
		}
	}
}
