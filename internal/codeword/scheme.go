// Package codeword defines the codeword encodings of the paper and the
// packed unit streams that carry them:
//
//   - Baseline (§4.1): 2-byte codewords — an escape byte built from one of
//     PowerPC's 8 illegal primary opcodes plus an index byte, giving up to
//     32×256 = 8192 codewords. Uncompressed instructions appear verbatim.
//   - OneByte (§4.1.2): 1-byte codewords drawn from the 32 escape byte
//     values, for small dictionaries (8–32 entries, 128–512 bytes).
//   - Nibble (§4.1.3, Fig. 10): variable-length codewords of 4, 8, 12 or
//     16 bits aligned to 4-bit units; one nibble is the escape introducing
//     a 36-bit uncompressed instruction. Shortest codewords go to the most
//     frequent dictionary entries.
//   - Liao (§2.4): whole-instruction (32-bit) call-dictionary codewords,
//     the comparison baseline. Single instructions can never profit, which
//     reproduces the paper's criticism.
//
// All streams decode unambiguously from any item boundary because a valid
// instruction's first byte never carries an illegal primary opcode.
package codeword

import "fmt"

// Scheme selects a codeword encoding.
type Scheme uint8

// The four schemes.
const (
	Baseline Scheme = iota
	OneByte
	Nibble
	Liao
)

// String is the scheme's canonical name — the same string the codec table
// lists it under, so names round-trip: codecs.SchemeByName(s.String()) ==
// s for every scheme.
func (s Scheme) String() string {
	switch s {
	case Baseline:
		return "baseline"
	case OneByte:
		return "onebyte"
	case Nibble:
		return "nibble"
	case Liao:
		return "liao"
	}
	return fmt.Sprintf("Scheme(%d)", uint8(s))
}

// Nibble-scheme codeword classes (Fig. 10). The first nibble selects the
// class; class capacities are 8, 48, 512 and 8192 entries.
const (
	nib4Lim  = 8                 // first nibbles 0..7: 4-bit codewords
	nib8Lim  = nib4Lim + 3*16    // first nibbles 8..10: 8-bit codewords
	nib12Lim = nib8Lim + 2*256   // first nibbles 11..12: 12-bit codewords
	nib16Lim = nib12Lim + 2*4096 // first nibbles 13..14: 16-bit codewords
	// First nibble 15 escapes to an uncompressed 36-bit instruction.
	nibEscape = 0xF
)

// UnitBits is the stream alignment unit — the size of the smallest
// codeword. Branch offsets of compressed programs are reinterpreted in
// this unit (§3.2.2).
func (s Scheme) UnitBits() int {
	switch s {
	case Baseline:
		return 16
	case OneByte:
		return 8
	case Nibble:
		return 4
	case Liao:
		return 32
	}
	panic("codeword: unknown scheme")
}

// MaxEntries is the codeword-space capacity.
func (s Scheme) MaxEntries() int {
	switch s {
	case Baseline:
		return 32 * 256
	case OneByte:
		return 32
	case Nibble:
		return nib16Lim
	case Liao:
		return 1 << 16
	}
	panic("codeword: unknown scheme")
}

// CodewordBits returns the encoded size of the codeword for the entry with
// the given rank. It is non-decreasing in rank, as the greedy builder
// requires.
func (s Scheme) CodewordBits(rank int) int {
	switch s {
	case Baseline:
		return 16
	case OneByte:
		return 8
	case Liao:
		return 32
	case Nibble:
		switch {
		case rank < nib4Lim:
			return 4
		case rank < nib8Lim:
			return 8
		case rank < nib12Lim:
			return 12
		default:
			return 16
		}
	}
	panic("codeword: unknown scheme")
}

// CodewordUnits is CodewordBits expressed in stream units.
func (s Scheme) CodewordUnits(rank int) int { return s.CodewordBits(rank) / s.UnitBits() }

// RawInsnUnits is the stream size of an uncompressed instruction: 32 bits,
// except for the nibble scheme where an escape nibble precedes it.
func (s Scheme) RawInsnUnits() int {
	if s == Nibble {
		return 9
	}
	return 32 / s.UnitBits()
}

// EscapeBits is the portion of one codeword spent marking "this is a
// codeword" rather than selecting an entry: the illegal-opcode escape byte
// (baseline and one-byte), the escape-class nibble, or Liao's 6-bit
// primary opcode.
func (s Scheme) EscapeBits() int {
	switch s {
	case Baseline, OneByte:
		return 8
	case Nibble:
		return 4
	case Liao:
		return 6
	}
	return 0
}

// EntryOverheadBits is the per-entry dictionary serialization overhead
// charged to the compressed size: a one-byte instruction count.
const EntryOverheadBits = 8

// DictHeaderBytes is the fixed dictionary serialization header.
const DictHeaderBytes = 4

// DictBytes is the serialized size of a dictionary with the given entry
// lengths (in instructions).
func DictBytes(entryLens []int) int {
	n := DictHeaderBytes
	for _, k := range entryLens {
		n += 1 + 4*k
	}
	return n
}
