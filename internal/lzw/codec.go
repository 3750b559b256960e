package lzw

import (
	"bytes"
	"fmt"
	"io"

	"repro/internal/codec"
	"repro/internal/program"
	"repro/internal/wire"
)

// Image is a whole-text LZW compression of a program. It is a size
// comparator, not an executable encoding: LZW's sequential decode offers
// no random access, which is exactly the paper's Figure 11 point.
type Image struct {
	Name          string
	OriginalBytes int
	Blob          []byte // the LZW stream over the program's text bytes
}

// Method identifies the LZW codec in image frames.
func (img *Image) Method() codec.Method { return codec.LZW }

// CompressedBytes is the stream length.
func (img *Image) CompressedBytes() int { return len(img.Blob) }

// Ratio is compressed/original.
func (img *Image) Ratio() float64 {
	if img.OriginalBytes == 0 {
		return 0
	}
	return float64(img.CompressedBytes()) / float64(img.OriginalBytes)
}

// WritePayload serializes an LZW image body.
func (img *Image) WritePayload(dst io.Writer) error {
	w := wire.NewWriter(dst)
	w.Str(img.Name)
	w.U32(uint32(img.OriginalBytes))
	w.Blob(img.Blob)
	return w.Err()
}

// ReadImagePayload deserializes an LZW image body.
func ReadImagePayload(src io.Reader) (*Image, error) {
	r := wire.NewReader(src)
	img := &Image{}
	img.Name = r.Str()
	img.OriginalBytes = int(r.U32())
	img.Blob = r.Blob()
	if err := r.Err(); err != nil {
		return nil, err
	}
	return img, nil
}

// Verify decompresses the stream and compares it to the program text.
func (img *Image) Verify(p *program.Program) error {
	got, err := Decompress(img.Blob)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, p.TextBytes()) {
		return fmt.Errorf("lzw: decompressed text differs from program %s", p.Name)
	}
	return nil
}
