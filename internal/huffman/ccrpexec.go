package huffman

import (
	"fmt"

	"repro/internal/machine"
	"repro/internal/program"
	"repro/internal/sizeaudit"
)

// CCRPImage is an executable compressed program in the CCRP style
// [Wolfe92]: the text is Huffman-compressed per cache line; instruction
// addresses are unchanged (the icache holds decompressed lines), and a
// Line Address Table maps line numbers to compressed blobs. Unlike the
// dictionary method, no branch patching is needed — the cost is moved to
// the refill path.
type CCRPImage struct {
	Name     string
	LineSize int
	TextBase uint32
	NumWords int
	Entry    uint32

	Code  *Code
	Lines [][]byte // compressed or raw payload per line
	Raw   []bool   // true when the line is stored uncompressed

	Data          []byte
	DataBase      uint32
	OriginalBytes int
	LATBytesPer   float64
}

// BuildCCRPImage compresses a program's text per line.
func BuildCCRPImage(p *program.Program, cfg CCRP) (*CCRPImage, error) {
	if cfg.LineSize <= 0 || cfg.LineSize%4 != 0 {
		return nil, fmt.Errorf("huffman: line size %d must be a positive multiple of 4", cfg.LineSize)
	}
	text := p.TextBytes()
	var freq [256]int64
	for _, b := range text {
		freq[b]++
	}
	code, err := Build(&freq)
	if err != nil {
		return nil, err
	}
	img := &CCRPImage{
		Name:          p.Name,
		LineSize:      cfg.LineSize,
		TextBase:      p.TextBase,
		NumWords:      len(p.Text),
		Entry:         p.EntryAddr(),
		Code:          code,
		Data:          append([]byte(nil), p.Data...),
		DataBase:      p.DataBase,
		OriginalBytes: p.SizeBytes(),
		LATBytesPer:   cfg.LATBytesPerLine,
	}
	rawLines := 0
	for off := 0; off < len(text); off += cfg.LineSize {
		end := off + cfg.LineSize
		if end > len(text) {
			end = len(text)
		}
		line := text[off:end]
		enc := code.Encode(line)
		if len(enc) >= len(line) {
			img.Lines = append(img.Lines, append([]byte(nil), line...))
			img.Raw = append(img.Raw, true)
			rawLines++
			for i := range line {
				cfg.Audit.At(sizeaudit.Raw, uint32(off+i), 8)
			}
		} else {
			img.Lines = append(img.Lines, enc)
			img.Raw = append(img.Raw, false)
			for i, b := range line {
				cfg.Audit.At(sizeaudit.Codeword, uint32(off+i), int64(code.Lens[b]))
			}
			// The byte round-up at the end of the line belongs to whichever
			// function owns the line start — close enough for a sub-byte
			// remainder, and it keeps the accounting exact.
			cfg.Audit.At(sizeaudit.Padding, uint32(off),
				int64(len(enc))*8-int64(code.EncodedBits(line)))
		}
	}
	latBytes := img.CompressedBytes() - 256
	for _, l := range img.Lines {
		latBytes -= len(l)
	}
	cfg.Audit.Global(sizeaudit.Table, sizeaudit.LATRow, int64(latBytes)*8)
	cfg.Audit.Global(sizeaudit.Table, sizeaudit.CodeTableRow, 256*8)
	cfg.recordStats(CCRPResult{
		Lines:          len(img.Lines),
		LATBytes:       latBytes,
		CodeTableBytes: 256,
	}, rawLines)
	return img, nil
}

// CompressedBytes counts line payloads, the LAT and the code table.
func (img *CCRPImage) CompressedBytes() int {
	n := 256 // code-length table
	for _, l := range img.Lines {
		n += len(l)
	}
	n += int(float64(len(img.Lines)) * img.LATBytesPer)
	return n
}

// Ratio is compressed/original.
func (img *CCRPImage) Ratio() float64 {
	if img.OriginalBytes == 0 {
		return 0
	}
	return float64(img.CompressedBytes()) / float64(img.OriginalBytes)
}

// decodeLine expands line ln into words.
func (img *CCRPImage) decodeLine(ln int) ([]uint32, error) {
	if ln < 0 || ln >= len(img.Lines) {
		return nil, fmt.Errorf("huffman: line %d out of range", ln)
	}
	nbytes := img.LineSize
	if rem := img.NumWords*4 - ln*img.LineSize; rem < nbytes {
		nbytes = rem
	}
	var raw []byte
	if img.Raw[ln] {
		raw = img.Lines[ln]
	} else {
		dec, err := img.Code.Decode(img.Lines[ln], nbytes)
		if err != nil {
			return nil, fmt.Errorf("huffman: line %d: %w", ln, err)
		}
		raw = dec
	}
	if len(raw) < nbytes {
		return nil, fmt.Errorf("huffman: line %d holds %d bytes, want %d", ln, len(raw), nbytes)
	}
	words := make([]uint32, nbytes/4)
	for i := range words {
		words[i] = uint32(raw[4*i])<<24 | uint32(raw[4*i+1])<<16 |
			uint32(raw[4*i+2])<<8 | uint32(raw[4*i+3])
	}
	return words, nil
}

// CCRPFrontend is the CCRP fetch path: instruction addresses are the
// original ones; a small direct-mapped buffer of decompressed lines stands
// in for the instruction cache, and a miss charges the compressed line's
// bytes as memory traffic.
type CCRPFrontend struct {
	img   *CCRPImage
	pc    uint32
	ways  int
	tags  []int // cached line number per way, -1 empty
	lines [][]uint32

	// Misses counts refills (line decompressions).
	Misses int64
}

// NewCCRPFrontend builds the fetch path with the given number of cached
// decompressed lines.
func NewCCRPFrontend(img *CCRPImage, cacheLines int) *CCRPFrontend {
	if cacheLines < 1 {
		cacheLines = 1
	}
	f := &CCRPFrontend{
		img:   img,
		ways:  cacheLines,
		tags:  make([]int, cacheLines),
		lines: make([][]uint32, cacheLines),
	}
	for i := range f.tags {
		f.tags[i] = -1
	}
	return f
}

var _ machine.Frontend = (*CCRPFrontend)(nil)

// Reset empties the decompressed-line buffer, zeroes Misses and positions
// fetch at the entry address, so a machine Reset replays a run exactly.
func (f *CCRPFrontend) Reset(entry uint32) error {
	for i := range f.tags {
		f.tags[i] = -1
	}
	f.Misses = 0
	return f.SetPC(entry)
}

// PC returns the current fetch address.
func (f *CCRPFrontend) PC() uint32 { return f.pc }

// SetPC redirects fetch; addresses are original text addresses.
func (f *CCRPFrontend) SetPC(addr uint32) error {
	lo := f.img.TextBase
	hi := lo + uint32(4*f.img.NumWords)
	if addr < lo || addr >= hi || addr%4 != 0 {
		return fmt.Errorf("huffman: jump to %#x outside text [%#x,%#x)", addr, lo, hi)
	}
	f.pc = addr
	return nil
}

// RelTarget: standard word-scaled displacement — CCRP needs no control
// unit changes, which was its selling point.
func (f *CCRPFrontend) RelTarget(cia uint32, field int32) uint32 {
	return cia + uint32(field)*4
}

// Fetch serves the instruction at PC, refilling through the decompressor
// on a line miss.
func (f *CCRPFrontend) Fetch() (machine.FetchInfo, error) {
	off := int(f.pc - f.img.TextBase)
	ln := off / f.img.LineSize
	way := ln % f.ways
	fi := machine.FetchInfo{CIA: f.pc, Next: f.pc + 4, NextOK: true}
	if f.tags[way] != ln {
		words, err := f.img.decodeLine(ln)
		if err != nil {
			return machine.FetchInfo{}, err
		}
		f.tags[way] = ln
		f.lines[way] = words
		f.Misses++
		fi.MemAddr = f.img.TextBase + uint32(ln*f.img.LineSize)
		fi.MemBytes = len(f.img.Lines[ln]) // compressed bytes cross memory
	}
	idx := off % f.img.LineSize / 4
	if idx >= len(f.lines[way]) {
		return machine.FetchInfo{}, fmt.Errorf("huffman: fetch at %#x beyond line", f.pc)
	}
	fi.Word = f.lines[way][idx]
	f.pc += 4
	return fi, nil
}

// NewCCRPMachine builds a CPU executing the CCRP image, with data and
// stack mapped exactly as for the original program.
func NewCCRPMachine(img *CCRPImage, cacheLines int) (*machine.CPU, error) {
	return machine.NewGuest(machine.NewMemory(), NewCCRPFrontend(img, cacheLines), img.DataBase, img.Data, img.Entry)
}
