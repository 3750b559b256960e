// Package codec defines the types every encoding shares: the stable
// one-byte method id recorded in serialized image frames, the encoding
// options, and the Image interface with its Executable/Auditable facets.
// The encodings themselves — the paper's dictionary codeword schemes, the
// CCRP Huffman comparator, the LZW comparator — are listed in one table in
// internal/codecs.
//
// The method byte stored in the serialized frame makes every image
// self-describing, so any tool can open any .ppz without being told its
// encoding.
package codec

import (
	"io"

	"repro/internal/machine"
	"repro/internal/program"
	"repro/internal/sizeaudit"
	"repro/internal/stats"
)

// Method is the stable one-byte codec id recorded in serialized image
// frames. Values are wire format: never renumber them. The dictionary
// schemes keep their codeword.Scheme numeric values, the scheme byte
// their payloads also carry.
type Method uint8

// Method bytes.
const (
	Baseline Method = 0 // 2-byte codewords (§4.1)
	OneByte  Method = 1 // 1-byte codewords (§4.1.2)
	Nibble   Method = 2 // 4/8/12/16-bit codewords (§4.1.3)
	Liao     Method = 3 // whole-instruction call dictionary (§2.4)
	CCRP     Method = 4 // per-cache-line Huffman with LAT [Wolfe92]
	LZW      Method = 5 // Unix compress(1) comparator (Fig. 11)
)

// Options carries the encoding parameters and observability sinks a codec
// may honor. Every field is optional; codecs ignore what does not apply to
// them (the dictionary-shape knobs mean nothing to CCRP or LZW).
type Options struct {
	// MaxEntries bounds a dictionary codec's entry budget; 0 means the
	// scheme maximum.
	MaxEntries int

	// MaxEntryLen bounds instructions per dictionary entry; 0 means the
	// paper's baseline of 4.
	MaxEntryLen int

	// Stats, when non-nil, receives the codec's pipeline counters and
	// timers. Nil-safe pass-through; never affects the produced image.
	Stats *stats.Recorder

	// Audit, when non-nil, receives one byte-provenance record per emitted
	// item. Nil-safe pass-through; never affects the produced image.
	// Callers Finish it with the image's CompressedBytes afterwards.
	Audit *sizeaudit.Emitter
}

// Image is a compressed program. Concrete types carry the codec-specific
// payload (dictionary entries and marks, Huffman lines and LAT, an LZW
// blob); the interface is what the generic layers need for framing,
// verification and size accounting.
type Image interface {
	// Method identifies the codec that produced (and can reopen) the image.
	Method() Method

	// CompressedBytes is the total compressed size including every
	// overhead the paper charges (dictionary, tables, padding).
	CompressedBytes() int

	// Ratio is Eq. 1: compressed size / original size.
	Ratio() float64

	// WritePayload serializes the image body: everything a PPCZ frame
	// stores after its method byte.
	WritePayload(w io.Writer) error

	// Verify checks the image against the original program (structural
	// round-trip; the strongest check the encoding supports).
	Verify(p *program.Program) error
}

// Executable is implemented by images that can run on the simulator.
// Opening a .ppz and asserting this interface is how ccrun executes any
// encoding without knowing it in advance.
type Executable interface {
	Image

	// NewMachine builds a CPU executing the image with the codec's default
	// fetch-path configuration.
	NewMachine() (*machine.CPU, error)
}

// Auditable is implemented by images that can reconstruct their
// byte-provenance audit from serialized sideband metadata alone (no
// recompression) — the dictionary images' marks-based path.
type Auditable interface {
	Image
	SizeAudit() (*sizeaudit.Audit, error)
}
