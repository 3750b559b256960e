// Package codecs is the table of the six encodings the paper measures:
// its three dictionary codeword schemes and Liao's call dictionary
// (internal/core), and the CCRP and Unix compress comparators
// (internal/huffman, internal/lzw). The table is the one place that
// records each codec's frame method byte, canonical name and aliases;
// objfile framing, the bench tables and the command-line tools look
// encodings up here instead of hard-coding scheme lists.
package codecs

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/codec"
	"repro/internal/codeword"
	"repro/internal/core"
	"repro/internal/huffman"
	"repro/internal/lzw"
	"repro/internal/program"
	"repro/internal/sizeaudit"
)

// Codec is one row of the table.
type Codec struct {
	Method  codec.Method // stable frame byte
	Name    string       // canonical lower-case name used by CLIs, tables and audit rows
	Aliases []string     // extra accepted names, lower case

	// Compress encodes a program. The program is not mutated.
	Compress func(p *program.Program, opt codec.Options) (codec.Image, error)

	// Open deserializes an image payload written by the image's
	// WritePayload: the stream after the PPCZ frame's method byte.
	Open func(r io.Reader) (codec.Image, error)

	dict bool // a dictionary codeword scheme, whose scheme value is Method
}

// table lists every codec in method-byte order.
var table = []Codec{
	dictCodec(codec.Baseline, "baseline", "2byte"),
	dictCodec(codec.OneByte, "onebyte", "1byte"),
	dictCodec(codec.Nibble, "nibble"),
	dictCodec(codec.Liao, "liao"),
	{Method: codec.CCRP, Name: "ccrp", Compress: compressCCRP, Open: openCCRP},
	{Method: codec.LZW, Name: "lzw", Aliases: []string{"compress"}, Compress: compressLZW, Open: openLZW},
}

// Scheme reports the dictionary codeword scheme of a dictionary codec;
// ok is false for the comparators.
func (c Codec) Scheme() (s codeword.Scheme, ok bool) {
	return codeword.Scheme(c.Method), c.dict
}

// All lists every codec in method-byte order.
func All() []Codec { return append([]Codec(nil), table...) }

// Names lists the canonical codec names in method-byte order.
func Names() []string {
	out := make([]string, len(table))
	for i, c := range table {
		out[i] = c.Name
	}
	return out
}

// ByMethod resolves a frame method byte.
func ByMethod(m codec.Method) (Codec, error) {
	for _, c := range table {
		if c.Method == m {
			return c, nil
		}
	}
	return Codec{}, fmt.Errorf("codec: unknown method byte %d", m)
}

// ByName resolves a canonical name or alias, case-insensitively.
func ByName(name string) (Codec, error) {
	lower := strings.ToLower(name)
	for _, c := range table {
		if c.Name == lower {
			return c, nil
		}
		for _, a := range c.Aliases {
			if a == lower {
				return c, nil
			}
		}
	}
	return Codec{}, fmt.Errorf("codec: unknown codec %q (want one of %s)",
		name, strings.Join(Names(), ", "))
}

// SchemeNames lists the dictionary codecs' canonical names in method-byte
// order.
func SchemeNames() []string {
	var out []string
	for _, c := range table {
		if c.dict {
			out = append(out, c.Name)
		}
	}
	return out
}

// SchemeByName resolves the name or alias of a dictionary codec to its
// codeword scheme, rejecting the comparators.
func SchemeByName(name string) (codeword.Scheme, error) {
	valid := strings.Join(SchemeNames(), ", ")
	c, err := ByName(name)
	if err != nil {
		return 0, fmt.Errorf("unknown scheme %q (want one of %s)", name, valid)
	}
	s, ok := c.Scheme()
	if !ok {
		return 0, fmt.Errorf("codec %q is not a dictionary codeword scheme (want one of %s)", c.Name, valid)
	}
	return s, nil
}

// Audit compresses p with a live provenance emitter attached and returns
// the image together with its finished, conservation-checked audit.
func Audit(cd Codec, p *program.Program, opt codec.Options) (codec.Image, *sizeaudit.Audit, error) {
	em := sizeaudit.NewProgramEmitter(p)
	opt.Audit = em
	img, err := cd.Compress(p, opt)
	if err != nil {
		return nil, nil, err
	}
	a := em.Finish(p.Name, cd.Name, img.CompressedBytes(), p.SizeBytes())
	if err := a.Check(); err != nil {
		return nil, nil, err
	}
	return img, a, nil
}

// dictCodec builds the row of a dictionary codeword scheme: the full pipeline
// of internal/core on a private clone of the program.
func dictCodec(m codec.Method, name string, aliases ...string) Codec {
	s := codeword.Scheme(m)
	return Codec{
		Method:  m,
		Name:    name,
		Aliases: aliases,
		dict:    true,
		Compress: func(p *program.Program, opt codec.Options) (codec.Image, error) {
			return image(core.Compress(p.Clone(), core.Options{
				Scheme:      s,
				MaxEntries:  opt.MaxEntries,
				MaxEntryLen: opt.MaxEntryLen,
				Stats:       opt.Stats,
				Audit:       opt.Audit,
			}))
		},
		Open: func(r io.Reader) (codec.Image, error) {
			img, err := core.ReadImagePayload(r)
			if err != nil {
				return nil, err
			}
			if img.Scheme != s {
				return nil, fmt.Errorf("core: image scheme %v does not match codec %v", img.Scheme, s)
			}
			return img, nil
		},
	}
}

// compressCCRP builds a CCRP image with the Ext. A configuration
// (huffman.DefaultCCRP); the dictionary-shape options do not apply.
func compressCCRP(p *program.Program, opt codec.Options) (codec.Image, error) {
	cfg := huffman.DefaultCCRP()
	cfg.Stats = opt.Stats
	cfg.Audit = opt.Audit
	return image(huffman.BuildCCRPImage(p, cfg))
}

func openCCRP(r io.Reader) (codec.Image, error) { return image(huffman.ReadCCRPImagePayload(r)) }

// compressLZW encodes the program's text bytes; the dictionary-shape
// options do not apply.
func compressLZW(p *program.Program, opt codec.Options) (codec.Image, error) {
	return &lzw.Image{
		Name:          p.Name,
		OriginalBytes: p.SizeBytes(),
		Blob:          lzw.CompressAudited(p.TextBytes(), opt.Stats, opt.Audit),
	}, nil
}

func openLZW(r io.Reader) (codec.Image, error) { return image(lzw.ReadImagePayload(r)) }

// image returns a constructor's result as a codec.Image, keeping a failed
// result a nil interface rather than an interface holding a nil pointer.
func image[T codec.Image](img T, err error) (codec.Image, error) {
	if err != nil {
		return nil, err
	}
	return img, nil
}
