package huffman

import (
	"fmt"
	"io"
	"math"

	"repro/internal/codec"
	"repro/internal/machine"
	"repro/internal/program"
	"repro/internal/sizeaudit"
	"repro/internal/wire"
)

func init() {
	codec.Register(ccrpCodec{})
}

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

// WriteCCRPImagePayload serializes a CCRP image body (the bytes after the
// PPCZ frame header).
func WriteCCRPImagePayload(dst io.Writer, img *CCRPImage) error {
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

// ccrpCodec adapts the CCRP model to the codec interface with the Ext. A
// configuration (DefaultCCRP).
type ccrpCodec struct{}

func (ccrpCodec) Method() codec.Method { return codec.CCRP }
func (ccrpCodec) Name() string         { return "ccrp" }

func cfgFor(opt codec.Options) CCRP {
	cfg := DefaultCCRP()
	cfg.Stats = opt.Stats
	cfg.Audit = opt.Audit
	return cfg
}

// Compress builds a CCRP image; the dictionary-shape options do not apply
// and are ignored.
func (ccrpCodec) Compress(p *program.Program, opt codec.Options) (codec.Image, error) {
	return BuildCCRPImage(p, cfgFor(opt))
}

// Open deserializes a CCRP image payload.
func (ccrpCodec) Open(r io.Reader) (codec.Image, error) { return ReadCCRPImagePayload(r) }

// WriteImage serializes a CCRP image payload.
func (ccrpCodec) WriteImage(w io.Writer, img codec.Image) error {
	ci, ok := img.(*CCRPImage)
	if !ok {
		return fmt.Errorf("huffman: %T is not a CCRP image", img)
	}
	return WriteCCRPImagePayload(w, ci)
}

// Verify decodes every stored line and compares it against the original
// text — the image-level equivalent of CCRP.Verify.
func (ccrpCodec) Verify(p *program.Program, img codec.Image) error {
	ci, ok := img.(*CCRPImage)
	if !ok {
		return fmt.Errorf("huffman: %T is not a CCRP image", img)
	}
	if ci.NumWords != len(p.Text) {
		return fmt.Errorf("huffman: image holds %d words, program %d", ci.NumWords, len(p.Text))
	}
	wordsPerLine := ci.LineSize / 4
	for ln := range ci.Lines {
		words, err := ci.decodeLine(ln)
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

// Audit recompresses with a live provenance emitter and returns the
// conservation-checked audit.
func (ccrpCodec) Audit(p *program.Program, opt codec.Options) (*sizeaudit.Audit, error) {
	em := sizeaudit.NewProgramEmitter(p)
	cfg := cfgFor(opt)
	cfg.Audit = em
	img, err := BuildCCRPImage(p, cfg)
	if err != nil {
		return nil, err
	}
	a := em.Finish(p.Name, "ccrp", img.CompressedBytes(), p.SizeBytes())
	if err := a.Check(); err != nil {
		return nil, err
	}
	return a, nil
}

// MaxCompressedBytes: lines never expand (raw fallback), so the bound is
// the text plus the LAT and code table.
func (ccrpCodec) MaxCompressedBytes(originalBytes int) int {
	cfg := DefaultCCRP()
	lines := (originalBytes + cfg.LineSize - 1) / cfg.LineSize
	return originalBytes + int(float64(lines)*cfg.LATBytesPerLine) + 256
}
