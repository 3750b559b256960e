// Package core implements the paper's contribution: post-compilation
// dictionary compression of PowerPC programs (§3). It builds the greedy
// dictionary over basic-block-confined sequences, replaces occurrences
// with codewords in one of the supported encodings, lays the result out at
// codeword-unit alignment, repatches every relative-branch offset in unit
// granularity (§3.2.2), rewrites out-of-range branches through
// register-indirect stubs, patches jump tables in the data section, and
// accounts for the dictionary in the compressed size (§4). It also
// provides the decompressor, the structural verifier, and the compressed
// fetch frontend of Figure 3 for the machine simulator.
package core

import (
	"fmt"
	"hash/fnv"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/codeword"
	"repro/internal/dictionary"
	"repro/internal/machine"
	"repro/internal/ppc"
	"repro/internal/program"
	"repro/internal/sizeaudit"
	"repro/internal/stats"
	"repro/internal/trace"
)

// CompressedBase is the base address of compressed text in unit space.
// Branch fields hold unit displacements, so the base only matters for
// absolute values (jump tables, LR/CTR contents).
const CompressedBase = 0x0010_0000

// Options selects the encoding and dictionary shape.
type Options struct {
	// Scheme is the codeword encoding (baseline 2-byte by default).
	Scheme codeword.Scheme

	// MaxEntries bounds the dictionary; 0 or negative means the scheme's
	// maximum.
	MaxEntries int

	// MaxEntryLen bounds instructions per entry; 0 means the paper's
	// baseline of 4.
	MaxEntryLen int

	// DynProfile, when non-nil, holds per-original-word execution counts
	// (from a profiling run). Codeword ranks are then assigned by dynamic
	// fetch frequency instead of static use count, so the shortest
	// codewords cover the most-executed sequences — minimizing run-time
	// fetch traffic at a possible small cost in static size. Length must
	// equal the program's text length.
	DynProfile []int64

	// Stats, when non-nil, receives pipeline observability: phase timers
	// (core.analyze, core.build, core.encode, core.patch) and the
	// dictionary builder's counters and histograms. It never affects the
	// produced image.
	Stats *stats.Recorder

	// Trace, when non-nil, is the parent span under which Compress nests
	// one span per pipeline phase (mirroring the Stats phase timers), with
	// the dictionary build's own phase spans below core.build. Like
	// Stats, it never affects the produced image.
	Trace *trace.Span

	// Audit, when non-nil, receives one byte-provenance record per emitted
	// stream item plus the stream padding, dictionary storage and header —
	// the size-attribution sideband behind ccomp -audit. Like Stats it is
	// nil-safe and never affects the produced image; callers Finish it with
	// the image's CompressedBytes after Compress returns.
	Audit *sizeaudit.Emitter
}

// Normalized resolves the option defaults: MaxEntryLen 0 becomes the
// paper's baseline of 4, and MaxEntries 0 or negative (or anything beyond
// the scheme's codeword space) becomes the scheme maximum. Two Options
// that normalize equal always produce identical images, which is what
// cache keys must be computed over.
func (o Options) Normalized() Options {
	if o.MaxEntryLen == 0 {
		o.MaxEntryLen = 4
	}
	if o.MaxEntries <= 0 || o.MaxEntries > o.Scheme.MaxEntries() {
		o.MaxEntries = o.Scheme.MaxEntries()
	}
	return o
}

// Fingerprint is a stable hex hash of the normalized image-shaping
// options (scheme, dictionary bounds, and any dynamic profile). Two
// Options that fingerprint equal produce identical images, so run bundles
// and cache layers can use it as the configuration identity without
// serializing the options themselves.
func (o Options) Fingerprint() string {
	n := o.Normalized()
	h := fnv.New64a()
	// The fourth field once held a selection-policy option and is always
	// 0 now; keeping it keeps the options hashes in existing bundles valid.
	fmt.Fprintf(h, "%d/%d/%d/0", n.Scheme, n.MaxEntries, n.MaxEntryLen)
	for _, v := range n.DynProfile {
		fmt.Fprintf(h, "/%d", v)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// Mark records where an original instruction landed in the stream; it is
// sideband metadata for verification and disassembly, not part of the
// compressed size.
type Mark struct {
	Unit int // stream unit offset of the item
	Orig int // original text word index (sequence start for codewords)

	// Kind describes the item.
	Kind MarkKind
}

// MarkKind classifies stream items.
type MarkKind uint8

// Stream item kinds.
const (
	MarkRaw      MarkKind = iota // uncompressed non-branch instruction
	MarkCodeword                 // dictionary codeword
	MarkBranch                   // patched relative branch
	MarkStub                     // far branch expanded to an indirect stub
)

// Stats break the compressed program down for Figure 9.
type Stats struct {
	Items         int
	CodewordItems int
	RawItems      int // uncompressed instructions incl. branches
	StubBranches  int // far branches rewritten through registers
	CoveredInsns  int // original instructions absorbed into codewords

	// Figure 9 decomposition, in bits of the final stream.
	CodewordBits int // total codeword bits (incl. escape portion)
	EscapeBits   int // escape portion of the codewords
	RawBits      int // uncompressed instruction bits (incl. nibble escapes)
}

// Image is a compressed program.
type Image struct {
	Name   string
	Scheme codeword.Scheme

	Stream []byte
	Units  int

	// Entries are ranked by use count (most frequent first) so the
	// shortest codewords cover the hottest sequences.
	Entries []dictionary.Entry

	Base      uint32 // unit-space base address
	EntryUnit uint32 // absolute unit address of the entry point

	Data           []byte // data section with repatched jump tables
	DataBase       uint32
	JumpTableSlots []int

	Symbols []program.Symbol // Word field holds the *unit* offset

	// TextBase and OrigSymbols preserve the original program's text base
	// address and full symbol table (Word = original text word index), so a
	// compressed image can be symbolized in native terms through its
	// AddrMap — the guest profiler's requirement for producing profiles
	// diffable against an uncompressed run.
	TextBase    uint32
	OrigSymbols []program.Symbol

	Marks []Mark

	OriginalBytes   int
	StreamBytes     int
	DictionaryBytes int

	Stats Stats

	// predecode caches the decoded execution table (built lazily by
	// Predecode). Sideband only: never serialized, never part of the
	// compressed size; duplicate concurrent builds are benign.
	predecode atomic.Pointer[machine.Predecode]
}

// CompressedBytes is the total compressed size: stream plus dictionary,
// per the paper's accounting ("All compressed program sizes include the
// overhead of the dictionary").
func (img *Image) CompressedBytes() int { return img.StreamBytes + img.DictionaryBytes }

// Ratio is Eq. 1: compressed size / original size.
func (img *Image) Ratio() float64 {
	if img.OriginalBytes == 0 {
		return 0
	}
	return float64(img.CompressedBytes()) / float64(img.OriginalBytes)
}

// markByUnit finds the mark starting at an absolute unit address.
func (img *Image) markByUnit(abs uint32) (Mark, bool) {
	rel := int(abs - img.Base)
	i := sort.Search(len(img.Marks), func(i int) bool { return img.Marks[i].Unit >= rel })
	if i < len(img.Marks) && img.Marks[i].Unit == rel {
		return img.Marks[i], true
	}
	return Mark{}, false
}

// markers computes the compressibility and leader vectors for a program:
// §3.2.1 — relative branches are never compressed (their offsets must be
// rewritten); link-setting branches are excluded too because a return
// into the middle of a dictionary entry is unaddressable.
func markers(p *program.Program) (compressible []bool, an *program.Analysis, err error) {
	an, err = program.Analyze(p)
	if err != nil {
		return nil, nil, err
	}
	compressible = make([]bool, len(p.Text))
	for i, w := range p.Text {
		compressible[i] = !ppc.IsRelativeBranch(w) && !(ppc.IsBranch(w) && ppc.IsCall(w))
	}
	return compressible, an, nil
}

// Markers computes the §3.2.1 compressibility and basic-block leader
// vectors for a program — the inputs dictionary.Build needs beyond the
// text itself. Exported for benchmarks and tools that drive the
// dictionary builder directly.
func Markers(p *program.Program) (compressible, leader []bool, err error) {
	comp, an, err := markers(p)
	if err != nil {
		return nil, nil, err
	}
	return comp, an.Leader, nil
}

// CompressFixed compresses a program against a pre-built dictionary (a
// ROM dictionary shared across programs, for instance). Entry order is
// preserved — codeword ranks must mean the same thing to every program
// sharing the dictionary — and the scheme must have room for them all.
func CompressFixed(p *program.Program, entries []dictionary.Entry, opt Options) (*Image, error) {
	opt = opt.Normalized()
	if len(entries) > opt.Scheme.MaxEntries() {
		return nil, fmt.Errorf("core: %d entries exceed %v's codeword space", len(entries), opt.Scheme)
	}
	compressible, an, err := markers(p)
	if err != nil {
		return nil, err
	}
	res, err := dictionary.Apply(p.Text, entries, dictionary.Config{
		Compressible: compressible,
		Leader:       an.Leader,
	})
	if err != nil {
		return nil, err
	}
	// Identity ranking: the shared dictionary's order is fixed.
	rank := reranked{entries: res.Entries, of: make([]int, len(res.Entries))}
	for i := range rank.of {
		rank.of[i] = i
	}
	return assemble(p, an, opt, res, rank)
}

// BuildSharedDictionary runs the greedy builder over the concatenation of
// several programs and returns a single dictionary (most-used entries
// first) suitable for CompressFixed on each of them — the fleet-wide ROM
// dictionary deployment.
func BuildSharedDictionary(programs []*program.Program, opt Options) ([]dictionary.Entry, error) {
	opt = opt.Normalized()
	var text []uint32
	var compressible, leaders []bool
	for _, p := range programs {
		comp, an, err := markers(p)
		if err != nil {
			return nil, err
		}
		text = append(text, p.Text...)
		compressible = append(compressible, comp...)
		leaders = append(leaders, an.Leader...)
	}
	res, err := dictionary.Build(text, dictionary.Config{
		MaxEntries:        opt.MaxEntries,
		MaxEntryLen:       opt.MaxEntryLen,
		CodewordBits:      opt.Scheme.CodewordBits,
		EntryOverheadBits: codeword.EntryOverheadBits,
		Compressible:      compressible,
		Leader:            leaders,
	})
	if err != nil {
		return nil, err
	}
	rank := rerank(res, nil)
	return rank.entries, nil
}

// Compress runs the full pipeline: SelectDictionary, then CompressWith.
func Compress(p *program.Program, opt Options) (*Image, error) {
	sel, err := SelectDictionary(p, opt)
	if err != nil {
		return nil, err
	}
	return CompressWith(p, sel, opt)
}

// Selection is a program's dictionary selection under one codeword
// scheme and entry length, recorded before the entry budget is applied.
// A build capped at m entries is exactly the first m selections of any
// build with a larger cap (dictionary.Selection), so CompressWith serves
// every budget up to the selection's own cap from one selection.
type Selection struct {
	sel         *dictionary.Selection
	text        []uint32
	an          *program.Analysis // of the program the selection was made for
	scheme      codeword.Scheme
	maxEntryLen int
}

// Candidates is a program's candidate index for one entry length. The
// index depends on neither the codeword scheme nor the entry budget, so
// the selections under every scheme and policy share it. It is built on
// first use, by the first selection that needs it and inside that
// selection's phases, so every selection has the phases of a fresh
// SelectDictionary: markers under core.analyze, enumeration and selection
// under core.build.
type Candidates struct {
	p           *program.Program
	maxEntryLen int

	analyzed     sync.Once
	compressible []bool
	an           *program.Analysis
	markErr      error

	enumerated sync.Once
	idx        *dictionary.Candidates
	idxErr     error
}

// NewCandidates returns p's (not yet built) candidate index for one entry
// length, as in normalized Options. The index references p.Text, which
// must not change while it or a selection made from it is in use.
func NewCandidates(p *program.Program, maxEntryLen int) *Candidates {
	return &Candidates{p: p, maxEntryLen: maxEntryLen}
}

// SelectDictionary runs the front half of Compress: the §3.2.1 markers
// (the core.analyze phase) and the greedy dictionary selection
// (core.build) for opt's scheme and entry length, up to opt.MaxEntries
// entries. Leave MaxEntries 0 for the scheme-maximum selection that
// serves every budget. The selection references p.Text, which must not
// change while the selection is in use.
func SelectDictionary(p *program.Program, opt Options) (*Selection, error) {
	opt = opt.Normalized()
	return NewCandidates(p, opt.MaxEntryLen).Select(opt)
}

// Select is SelectDictionary over the shared index: it computes the
// markers and enumerates the candidates only if no earlier selection
// has. opt's entry length must be the index's.
func (c *Candidates) Select(opt Options) (*Selection, error) {
	return c.selectWith(opt, (*dictionary.Candidates).Select)
}

// SelectStatic is Select under the static-order ablation policy
// (dictionary.Candidates.SelectStatic) instead of the paper's greedy
// re-evaluation.
func (c *Candidates) SelectStatic(opt Options) (*Selection, error) {
	return c.selectWith(opt, (*dictionary.Candidates).SelectStatic)
}

// SelectReference is Select made by the reference greedy builder
// (dictionary.Reference), which enumerates for itself: the same
// selection as Select, none of the indexing.
func (c *Candidates) SelectReference(opt Options) (*Selection, error) {
	return c.selectWith(opt, func(_ *dictionary.Candidates, cfg dictionary.Config) (*dictionary.Selection, error) {
		res, err := dictionary.Reference(c.p.Text, cfg)
		if err != nil {
			return nil, err
		}
		return dictionary.SelectionOf(c.p.Text, res, cfg.MaxEntries), nil
	})
}

// selectWith runs one selection policy over the shared index inside the
// core.analyze and core.build phases, with the builder's spans nested
// under core.build.
func (c *Candidates) selectWith(opt Options, policy func(*dictionary.Candidates, dictionary.Config) (*dictionary.Selection, error)) (*Selection, error) {
	opt = opt.Normalized()
	if opt.MaxEntryLen != c.maxEntryLen {
		return nil, fmt.Errorf("core: selection for entry length %d from an index of length %d", opt.MaxEntryLen, c.maxEntryLen)
	}
	c.analyzed.Do(func() {
		stop := opt.Stats.Time("core.analyze")
		sp := opt.Trace.Child("core.analyze")
		c.compressible, c.an, c.markErr = markers(c.p)
		sp.End()
		stop()
	})
	if c.markErr != nil {
		return nil, c.markErr
	}
	stop := opt.Stats.Time("core.build")
	defer stop()
	sp := opt.Trace.Child("core.build")
	defer sp.End()
	cfg := dictionary.Config{
		MaxEntries:        opt.MaxEntries,
		MaxEntryLen:       opt.MaxEntryLen,
		CodewordBits:      opt.Scheme.CodewordBits,
		EntryOverheadBits: codeword.EntryOverheadBits,
		Compressible:      c.compressible,
		Leader:            c.an.Leader,
		Stats:             opt.Stats,
		Trace:             sp,
	}
	c.enumerated.Do(func() { c.idx, c.idxErr = dictionary.NewCandidates(c.p.Text, cfg) })
	if c.idxErr != nil {
		return nil, c.idxErr
	}
	sel, err := policy(c.idx, cfg)
	if err != nil {
		return nil, err
	}
	return &Selection{sel: sel, text: c.p.Text, an: c.an, scheme: opt.Scheme, maxEntryLen: opt.MaxEntryLen}, nil
}

// CompressWith runs the back half of Compress over a selection made for
// p: it takes the selection's first opt.MaxEntries entries, re-ranks them
// and assembles the image. The selection must have been made for opt's
// scheme and entry length, with a cap of at least opt.MaxEntries.
func CompressWith(p *program.Program, sel *Selection, opt Options) (*Image, error) {
	opt = opt.Normalized()
	if sel.scheme != opt.Scheme || sel.maxEntryLen != opt.MaxEntryLen {
		return nil, fmt.Errorf("core: selection for %v/len %d used for %v/len %d",
			sel.scheme, sel.maxEntryLen, opt.Scheme, opt.MaxEntryLen)
	}
	if sel.sel.Cap() < opt.MaxEntries {
		return nil, fmt.Errorf("core: selection capped at %d entries cannot serve %d", sel.sel.Cap(), opt.MaxEntries)
	}
	if !slices.Equal(sel.text, p.Text) {
		return nil, fmt.Errorf("core: selection was made for a different program than %s", p.Name)
	}
	if opt.DynProfile != nil && len(opt.DynProfile) != len(p.Text) {
		return nil, fmt.Errorf("core: profile length %d != text length %d", len(opt.DynProfile), len(p.Text))
	}
	res, err := sel.sel.Prefix(opt.MaxEntries)
	if err != nil {
		return nil, err
	}
	// Re-rank entries so the most frequent sequences receive the shortest
	// codewords (§3.1.3) — by static use count, or by dynamic fetch count
	// when a profile is supplied; remap item references.
	rank := rerank(res, opt.DynProfile)
	// The selection's analysis serves p: the branch targets assemble reads
	// depend on the text alone, which the check above found equal.
	return assemble(p, sel.an, opt, res, rank)
}

// assemble runs the scheme-dependent back half of the pipeline: layout,
// emission, branch patching, jump-table repatching and accounting. an is
// p's analysis.
func assemble(p *program.Program, an *program.Analysis, opt Options, res *dictionary.Result, rank reranked) (*Image, error) {
	img := &Image{
		Name:           p.Name,
		Scheme:         opt.Scheme,
		Entries:        rank.entries,
		Base:           CompressedBase,
		Data:           append([]byte(nil), p.Data...),
		DataBase:       p.DataBase,
		JumpTableSlots: append([]int(nil), p.JumpTableSlots...),
		TextBase:       p.TextBase,
		OrigSymbols:    append([]program.Symbol(nil), p.Symbols...),
		OriginalBytes:  p.SizeBytes(),
	}

	stopEncode := opt.Stats.Time("core.encode")
	spEncode := opt.Trace.Child("core.encode")
	lay, err := layout(p, an, res.Items, rank.of, opt.Scheme)
	if err != nil {
		spEncode.End()
		stopEncode()
		return nil, err
	}
	err = emit(img, an, res.Items, rank.of, lay, opt)
	spEncode.End()
	stopEncode()
	if err != nil {
		return nil, err
	}

	defer opt.Stats.Time("core.patch")()
	defer opt.Trace.Child("core.patch").End()
	// Patch jump tables to absolute unit addresses in compressed space.
	jts, err := p.JumpTableTargets()
	if err != nil {
		return nil, err
	}
	for i, slot := range img.JumpTableSlots {
		u, ok := lay.unit(jts[i])
		if !ok {
			return nil, fmt.Errorf("core: jump table target word %d is not an item start", jts[i])
		}
		putBE32(img.Data[slot:], img.Base+uint32(u))
	}

	// Symbols and entry point.
	for _, s := range p.Symbols {
		if u, ok := lay.unit(s.Word); ok {
			img.Symbols = append(img.Symbols, program.Symbol{Name: s.Name, Word: u})
		}
	}
	eu, ok := lay.unit(p.Entry)
	if !ok {
		return nil, fmt.Errorf("core: entry word %d is not an item start", p.Entry)
	}
	img.EntryUnit = img.Base + uint32(eu)

	img.DictionaryBytes = codeword.DictBytes(entryLens(img.Entries))
	img.Stats.CoveredInsns = res.CoveredInsns
	// The dictionary's serialized storage and fixed header are overhead no
	// single function owns; they complete the audit's accounting of
	// CompressedBytes (stream + dictionary).
	opt.Audit.Global(sizeaudit.Dict, sizeaudit.DictRow,
		int64(img.DictionaryBytes-codeword.DictHeaderBytes)*8)
	opt.Audit.Global(sizeaudit.Header, sizeaudit.HeaderRow, int64(codeword.DictHeaderBytes)*8)
	return img, nil
}

// reranked carries the frequency-ordered dictionary.
type reranked struct {
	entries []dictionary.Entry
	of      []int // old index -> new rank
}

func rerank(res *dictionary.Result, profile []int64) reranked {
	weight := make([]int64, len(res.Entries))
	for i, e := range res.Entries {
		weight[i] = int64(e.Uses)
	}
	if profile != nil {
		// Dynamic weight: how often each entry's codeword is fetched,
		// approximated by the execution count of the sequence's first
		// instruction summed over all replaced occurrences.
		for i := range weight {
			weight[i] = 0
		}
		for _, it := range res.Items {
			if it.IsCodeword {
				weight[it.Entry] += profile[it.OrigIdx]
			}
		}
	}
	order := make([]int, len(res.Entries))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return weight[order[a]] > weight[order[b]]
	})
	r := reranked{
		entries: make([]dictionary.Entry, len(order)),
		of:      make([]int, len(order)),
	}
	for newIdx, oldIdx := range order {
		r.entries[newIdx] = res.Entries[oldIdx]
		r.of[oldIdx] = newIdx
	}
	return r
}

func entryLens(entries []dictionary.Entry) []int {
	out := make([]int, len(entries))
	for i, e := range entries {
		out[i] = len(e.Words)
	}
	return out
}

func putBE32(b []byte, v uint32) {
	b[0] = byte(v >> 24)
	b[1] = byte(v >> 16)
	b[2] = byte(v >> 8)
	b[3] = byte(v)
}
