package huffman

import (
	"fmt"
	"io"
	"math"

	"repro/internal/codec"
	"repro/internal/machine"
	"repro/internal/program"
	"repro/internal/wire"
)

// DefaultCacheLines is the decompressed-line buffer size a self-describing
// CCRP image executes with when the caller supplies no configuration (the
// codec.Executable path); 64 lines of 32 bytes matches the execution
// benchmarks' 2 KB buffer.
const DefaultCacheLines = 64

// Method identifies the CCRP codec in image frames.
func (img *CCRPImage) Method() codec.Method { return codec.CCRP }

// NewMachine builds a CPU executing the image with DefaultCacheLines
// decompressed lines buffered.
func (img *CCRPImage) NewMachine() (*machine.CPU, error) {
	return NewCCRPMachine(img, DefaultCacheLines)
}

// WritePayload serializes a CCRP image body (the bytes after the PPCZ
// frame header).
func (img *CCRPImage) WritePayload(dst io.Writer) error {
	w := wire.NewWriter(dst)
	w.Str(img.Name)
	w.U32(uint32(img.LineSize))
	w.U32(img.TextBase)
	w.U32(uint32(img.NumWords))
	w.U32(img.Entry)
	w.Bytes(img.Code.Lens[:])
	w.U32(uint32(len(img.Lines)))
	for ln, l := range img.Lines {
		raw := uint8(0)
		if img.Raw[ln] {
			raw = 1
		}
		w.U8(raw)
		w.Blob(l)
	}
	w.Blob(img.Data)
	w.U32(img.DataBase)
	w.U32(uint32(img.OriginalBytes))
	w.U64(math.Float64bits(img.LATBytesPer))
	return w.Err()
}

// ReadCCRPImagePayload deserializes a CCRP image body.
func ReadCCRPImagePayload(src io.Reader) (*CCRPImage, error) {
	r := wire.NewReader(src)
	img := &CCRPImage{}
	img.Name = r.Str()
	img.LineSize = int(r.U32())
	img.TextBase = r.U32()
	img.NumWords = int(r.U32())
	img.Entry = r.U32()
	var lens [256]uint8
	copy(lens[:], r.Bytes(256))
	nlines := r.Count(int(r.U32()), "line")
	for i := 0; i < nlines && r.Err() == nil; i++ {
		img.Raw = append(img.Raw, r.U8() != 0)
		img.Lines = append(img.Lines, r.Blob())
	}
	img.Data = r.Blob()
	img.DataBase = r.U32()
	img.OriginalBytes = int(r.U32())
	img.LATBytesPer = math.Float64frombits(r.U64())
	if err := r.Err(); err != nil {
		return nil, err
	}
	if img.LineSize <= 0 || img.LineSize%4 != 0 {
		return nil, fmt.Errorf("huffman: bad line size %d in image", img.LineSize)
	}
	if len(img.Raw) != len(img.Lines) {
		return nil, fmt.Errorf("huffman: %d raw flags for %d lines", len(img.Raw), len(img.Lines))
	}
	if want := (img.NumWords*4 + img.LineSize - 1) / img.LineSize; len(img.Lines) != want {
		return nil, fmt.Errorf("huffman: image has %d lines, %d words of text need %d", len(img.Lines), img.NumWords, want)
	}
	code, err := NewCodeFromLens(lens)
	if err != nil {
		return nil, err
	}
	img.Code = code
	return img, nil
}

// Verify decodes every stored line and compares it against the original
// text — the image-level equivalent of CCRP.Verify.
func (img *CCRPImage) Verify(p *program.Program) error {
	if img.NumWords != len(p.Text) {
		return fmt.Errorf("huffman: image holds %d words, program %d", img.NumWords, len(p.Text))
	}
	wordsPerLine := img.LineSize / 4
	for ln := range img.Lines {
		words, err := img.decodeLine(ln)
		if err != nil {
			return err
		}
		for i, w := range words {
			if orig := p.Text[ln*wordsPerLine+i]; w != orig {
				return fmt.Errorf("huffman: line %d word %d: %#x != %#x", ln, i, w, orig)
			}
		}
	}
	return nil
}
