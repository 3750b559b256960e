package dictionary

import "fmt"

// Selection is the trace of one dictionary selection: for each rank, the
// selected entry and its use count, and for each text word the rank of
// the entry whose accepted occurrence covers it — which records every
// rank's accepted occurrence starts, since each occurrence is a run of
// exactly its entry's length. It retains neither the rewritten Items nor
// the candidate index it was selected from.
//
// The greedy loop's state at rank r depends only on the ranks before it:
// a candidate's savings is a function of its free occurrences and of
// CodewordBits(r), which depends on rank alone. A cap of MaxEntries = m
// only stops the loop once rank m is reached, so a build capped at m is
// exactly the first m selections of any build with a larger cap, and
// Prefix(m) serves every cap up to Cap without rebuilding.
type Selection struct {
	text []uint32
	cap  int // the MaxEntries bound the selection ran under

	start []int32 // per rank: the entry's first accepted occurrence (its words are text[start:start+klen])
	klen  []int32 // per rank: entry length in words
	uses  []int32 // per rank: occurrences replaced

	rankOf []int32 // per text word: rank of the entry covering it, -1 if none
}

func newSelection(text []uint32, maxEntries int) *Selection {
	rankOf := make([]int32, len(text))
	for i := range rankOf {
		rankOf[i] = -1
	}
	return &Selection{text: text, cap: maxEntries, rankOf: rankOf}
}

// add appends the next rank's entry.
func (s *Selection) add(start, klen, uses int32) {
	s.start = append(s.start, start)
	s.klen = append(s.klen, klen)
	s.uses = append(s.uses, uses)
}

// Len is the number of entries selected. It is below Cap when the
// selection ran out of profitable candidates first.
func (s *Selection) Len() int { return len(s.start) }

// Cap is the entry budget the selection ran under; Prefix serves any
// budget up to it.
func (s *Selection) Cap() int { return s.cap }

// Prefix returns the Result of the same build capped at m entries: the
// first min(m, Len) selections and the items they imply. It fails when m
// is negative or beyond Cap, which this selection cannot answer.
func (s *Selection) Prefix(m int) (*Result, error) {
	if m < 0 || m > s.cap {
		return nil, fmt.Errorf("dictionary: prefix of %d entries from a selection capped at %d", m, s.cap)
	}
	if m > s.Len() {
		m = s.Len()
	}
	res := &Result{}
	words, items := 0, len(s.text)
	for r := 0; r < m; r++ {
		k, uses := int(s.klen[r]), int(s.uses[r])
		words += k
		res.CoveredInsns += uses * k
		items -= uses * (k - 1)
	}
	if m > 0 {
		arena := make([]uint32, 0, words)
		res.Entries = make([]Entry, m)
		for r := range res.Entries {
			w := len(arena)
			arena = append(arena, s.text[s.start[r]:s.start[r]+s.klen[r]]...)
			res.Entries[r] = Entry{Words: arena[w:len(arena):len(arena)], Uses: int(s.uses[r])}
		}
	}
	if items > 0 {
		res.Items = make([]Item, 0, items)
	}
	// Walking left to right lands on every covering occurrence's first
	// word: occurrences are disjoint runs of their entry's length.
	for i := 0; i < len(s.text); {
		if r := s.rankOf[i]; r >= 0 && int(r) < m {
			res.Items = append(res.Items, Item{IsCodeword: true, Entry: int(r), OrigIdx: i})
			i += int(s.klen[r])
			continue
		}
		res.Items = append(res.Items, Item{Word: s.text[i], OrigIdx: i})
		i++
	}
	return res, nil
}

// SelectionOf records a finished Result built under an entry budget of
// maxEntries — Reference's, say — as a Selection, so Prefix can serve it
// like one made from the index.
func SelectionOf(text []uint32, res *Result, maxEntries int) *Selection {
	s := newSelection(text, maxEntries)
	for _, e := range res.Entries {
		s.add(-1, int32(len(e.Words)), int32(e.Uses))
	}
	for _, it := range res.Items {
		if !it.IsCodeword {
			continue
		}
		r := it.Entry
		if s.start[r] < 0 {
			s.start[r] = int32(it.OrigIdx)
		}
		for j := it.OrigIdx; j < it.OrigIdx+int(s.klen[r]); j++ {
			s.rankOf[j] = int32(r)
		}
	}
	return s
}
