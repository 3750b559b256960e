package dictionary

import "sort"

// The static-order transcription: the ablation policy written directly
// over Reference's string-keyed candidates and covered vector, as the
// differential oracle for (*Candidates).SelectStatic.

// StaticTranscription runs buildStatic under cfg's resolved entry budget.
// It is exported for the external differential tests.
func StaticTranscription(text []uint32, cfg Config) (*Result, error) {
	maxEntries, err := check(text, cfg)
	if err != nil {
		return nil, err
	}
	return buildStatic(text, cfg, maxEntries), nil
}

// buildStatic ranks candidates once by initial savings and selects in that
// fixed order (the ablation baseline).
func buildStatic(text []uint32, cfg Config, maxEntries int) *Result {
	spE := cfg.Trace.Child("dict.enumerate")
	cands := enumerate(text, cfg)
	spE.SetInt("candidates", int64(len(cands))).End()
	cfg.Stats.Add("dict.candidates", int64(len(cands)))
	covered := make([]bool, len(text))
	coverEntry := newCoverEntry(len(text))
	res := &Result{}

	spS := cfg.Trace.Child("dict.select")
	for _, c := range cands {
		c.val = value(c, covered, cfg, 0)
	}
	sort.SliceStable(cands, func(i, j int) bool { return cands[i].val > cands[j].val })
	rank := 0
	for _, c := range cands {
		if rank >= maxEntries {
			break
		}
		v := value(c, covered, cfg, rank)
		if v <= 0 {
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
	return res
}
