package core

import (
	"fmt"
	"io"

	"repro/internal/codec"
	"repro/internal/codeword"
	"repro/internal/dictionary"
	"repro/internal/machine"
	"repro/internal/program"
	"repro/internal/wire"
)

// Method identifies the dictionary codec that produced the image: the raw
// scheme value, which the payload also stores, so the frame's method byte
// and the body's scheme byte agree.
func (img *Image) Method() codec.Method { return codec.Method(img.Scheme) }

// NewMachine builds a CPU executing the image with the default (on-chip
// dictionary) fetch path — the codec.Executable hook behind ccrun's
// any-encoding dispatch.
func (img *Image) NewMachine() (*machine.CPU, error) { return NewMachine(img) }

// WritePayload serializes a dictionary image body: everything the PPCZ
// container stores after its frame header, including the verification
// marks (sideband metadata).
func (img *Image) WritePayload(dst io.Writer) error {
	w := wire.NewWriter(dst)
	w.Str(img.Name)
	w.U8(uint8(img.Scheme))
	w.U32(uint32(img.Units))
	w.Blob(img.Stream)
	w.U32(img.Base)
	w.U32(img.EntryUnit)
	w.U32(uint32(len(img.Entries)))
	for _, e := range img.Entries {
		w.U8(uint8(len(e.Words)))
		for _, x := range e.Words {
			w.U32(x)
		}
		w.U32(uint32(e.Uses))
	}
	w.U32(img.DataBase)
	w.Blob(img.Data)
	w.U32(uint32(len(img.JumpTableSlots)))
	for _, s := range img.JumpTableSlots {
		w.U32(uint32(s))
	}
	w.U32(uint32(len(img.Symbols)))
	for _, s := range img.Symbols {
		w.Str(s.Name)
		w.U32(uint32(s.Word))
	}
	w.U32(uint32(len(img.Marks)))
	for _, m := range img.Marks {
		w.U32(uint32(m.Unit))
		w.U32(uint32(m.Orig))
		w.U8(uint8(m.Kind))
	}
	w.U32(uint32(img.OriginalBytes))
	w.U32(uint32(img.StreamBytes))
	w.U32(uint32(img.DictionaryBytes))
	for _, v := range []int{
		img.Stats.Items, img.Stats.CodewordItems, img.Stats.RawItems,
		img.Stats.StubBranches, img.Stats.CoveredInsns,
		img.Stats.CodewordBits, img.Stats.EscapeBits, img.Stats.RawBits,
	} {
		w.U32(uint32(v))
	}
	w.U32(img.TextBase)
	w.U32(uint32(len(img.OrigSymbols)))
	for _, s := range img.OrigSymbols {
		w.Str(s.Name)
		w.U32(uint32(s.Word))
	}
	return w.Err()
}

// ReadImagePayload deserializes a dictionary image body written by
// WritePayload.
func ReadImagePayload(src io.Reader) (*Image, error) {
	r := wire.NewReader(src)
	img := &Image{}
	img.Name = r.Str()
	img.Scheme = codeword.Scheme(r.U8())
	img.Units = int(r.U32())
	img.Stream = r.Blob()
	img.Base = r.U32()
	img.EntryUnit = r.U32()
	nent := r.Count(int(r.U32()), "entry")
	for i := 0; i < nent && r.Err() == nil; i++ {
		k := int(r.U8())
		if k == 0 && r.Err() == nil {
			return nil, fmt.Errorf("core: dictionary entry %d is empty", i)
		}
		words := make([]uint32, k)
		for j := range words {
			words[j] = r.U32()
		}
		uses := int(r.U32())
		img.Entries = append(img.Entries, dictionary.Entry{Words: words, Uses: uses})
	}
	img.DataBase = r.U32()
	img.Data = r.Blob()
	njt := r.Count(int(r.U32()), "jump-table slot")
	for i := 0; i < njt && r.Err() == nil; i++ {
		img.JumpTableSlots = append(img.JumpTableSlots, int(r.U32()))
	}
	nsym := r.Count(int(r.U32()), "symbol")
	for i := 0; i < nsym && r.Err() == nil; i++ {
		name := r.Str()
		img.Symbols = append(img.Symbols, program.Symbol{Name: name, Word: int(r.U32())})
	}
	nmarks := r.Count(int(r.U32()), "mark")
	for i := 0; i < nmarks && r.Err() == nil; i++ {
		m := Mark{Unit: int(r.U32()), Orig: int(r.U32()), Kind: MarkKind(r.U8())}
		img.Marks = append(img.Marks, m)
	}
	img.OriginalBytes = int(r.U32())
	img.StreamBytes = int(r.U32())
	img.DictionaryBytes = int(r.U32())
	for _, dst := range []*int{
		&img.Stats.Items, &img.Stats.CodewordItems, &img.Stats.RawItems,
		&img.Stats.StubBranches, &img.Stats.CoveredInsns,
		&img.Stats.CodewordBits, &img.Stats.EscapeBits, &img.Stats.RawBits,
	} {
		*dst = int(r.U32())
	}
	img.TextBase = r.U32()
	nosym := r.Count(int(r.U32()), "original symbol")
	for i := 0; i < nosym && r.Err() == nil; i++ {
		name := r.Str()
		img.OrigSymbols = append(img.OrigSymbols, program.Symbol{Name: name, Word: int(r.U32())})
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	// Units sizes the predecode table, so it must fit in the stream it
	// counts; an unchecked value would be an allocation bomb.
	if img.Scheme > codeword.Liao {
		return nil, fmt.Errorf("core: unknown scheme %v in image", img.Scheme)
	}
	if maxUnits := 8 * len(img.Stream) / img.Scheme.UnitBits(); img.Units > maxUnits {
		return nil, fmt.Errorf("core: image claims %d units but its %d-byte stream holds at most %d",
			img.Units, len(img.Stream), maxUnits)
	}
	return img, nil
}

// Verify runs the structural verifier against the original program.
func (img *Image) Verify(p *program.Program) error { return Verify(p, img) }
