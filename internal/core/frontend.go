package core

import (
	"fmt"

	"repro/internal/codeword"
	"repro/internal/machine"
	"repro/internal/program"
)

// CompressedFrontend is Figure 3's fetch path: it consumes codeword units
// from compressed program memory, expanding codewords through the on-chip
// dictionary in the decode stage. PC values are absolute unit addresses;
// relative-branch displacement fields are interpreted in units.
type CompressedFrontend struct {
	img *Image
	rdr *codeword.Reader

	pc    uint32   // unit address of the item being (or about to be) fetched
	queue []uint32 // remaining instructions of the current dictionary entry
	qNext uint32   // unit address following the current item
	qAddr uint32   // unit address of the current item

	// dictBase, when nonzero, models the dictionary living in program
	// memory rather than on-chip (§3.3 discusses both placements): each
	// expanded instruction then costs a 4-byte fetch from the dictionary
	// region. entryOff maps entry rank to its byte offset there.
	dictBase uint32
	entryOff []uint32
	qRank    int
	qIdx     int
}

// NewCompressedFrontend wraps an image for execution.
func NewCompressedFrontend(img *Image) *CompressedFrontend {
	return &CompressedFrontend{
		img: img,
		rdr: codeword.NewReader(img.Scheme, img.Stream, img.Units),
		pc:  img.EntryUnit,
	}
}

var _ machine.Frontend = (*CompressedFrontend)(nil)

// SetDictInMemory switches the traffic model to a memory-resident
// dictionary at the given byte base address: dictionary expansions fetch
// their instructions from memory instead of being free. Use before Run.
func (f *CompressedFrontend) SetDictInMemory(base uint32) {
	f.dictBase = base
	f.entryOff = make([]uint32, len(f.img.Entries))
	off := uint32(0)
	for i, e := range f.img.Entries {
		f.entryOff[i] = off
		off += uint32(4 * len(e.Words))
	}
}

// Reset positions fetch at an entry address.
func (f *CompressedFrontend) Reset(entry uint32) error { return f.SetPC(entry) }

// SetPC redirects fetch to an absolute unit address (branch target).
// Dictionary expansion in progress is abandoned, exactly as a taken branch
// inside an entry abandons the rest of the entry.
func (f *CompressedFrontend) SetPC(addr uint32) error {
	if addr < f.img.Base || addr >= f.img.Base+uint32(f.img.Units) {
		return fmt.Errorf("core: jump to %#x outside compressed text [%#x,%#x)",
			addr, f.img.Base, f.img.Base+uint32(f.img.Units))
	}
	f.pc = addr
	f.queue = nil
	return nil
}

// RelTarget interprets branch displacement fields at codeword-unit
// granularity (§3.2.2).
func (f *CompressedFrontend) RelTarget(cia uint32, field int32) uint32 {
	return cia + uint32(field)
}

// PC returns the current fetch unit address.
func (f *CompressedFrontend) PC() uint32 { return f.pc }

// SetRawPC repositions fetch without validation and abandons any expansion
// in progress — the fused loop's resynchronization hook. A bad address
// faults on the next Fetch.
func (f *CompressedFrontend) SetRawPC(pc uint32) {
	f.pc = pc
	f.queue = nil
}

// Predecode returns the image's predecoded table, or nil when this
// frontend cannot use one: a memory-resident dictionary makes every
// expanded instruction a distinct memory access the table does not model,
// and an expansion already in progress holds queue state a table restart
// would drop.
func (f *CompressedFrontend) Predecode() *machine.Predecode {
	if f.dictBase != 0 || len(f.queue) > 0 {
		return nil
	}
	return f.img.Predecode()
}

var _ machine.PredecodedFrontend = (*CompressedFrontend)(nil)

// Fetch returns the next instruction, expanding codewords as needed.
func (f *CompressedFrontend) Fetch() (machine.FetchInfo, error) {
	if len(f.queue) > 0 {
		w := f.queue[0]
		f.queue = f.queue[1:]
		f.qIdx++
		fi := machine.FetchInfo{
			Word: w,
			CIA:  f.qAddr,
			// Mid-entry successors are unaddressable; only the final
			// instruction of an entry has a meaningful Next.
			Next:   f.qNext,
			NextOK: len(f.queue) == 0,
			// Dictionary expansion: no program-memory traffic with an
			// on-chip dictionary; a 4-byte dictionary fetch otherwise.
			MemBytes: 0,
		}
		if f.dictBase != 0 {
			fi.MemAddr = f.dictBase + f.entryOff[f.qRank] + uint32(4*f.qIdx)
			fi.MemBytes = 4
		}
		return fi, nil
	}
	it, err := f.rdr.At(int(f.pc - f.img.Base))
	if err != nil {
		return machine.FetchInfo{}, err
	}
	cia := f.pc
	next := f.pc + uint32(it.Units)
	memAddr := f.byteAddr(cia)
	memBytes := (it.Units*f.img.Scheme.UnitBits() + 7) / 8
	f.pc = next
	if !it.IsCodeword {
		return machine.FetchInfo{
			Word: it.Word, CIA: cia, Next: next, NextOK: true,
			MemAddr: memAddr, MemBytes: memBytes,
		}, nil
	}
	if it.Rank >= len(f.img.Entries) {
		return machine.FetchInfo{}, fmt.Errorf("core: codeword %d exceeds dictionary", it.Rank)
	}
	words := f.img.Entries[it.Rank].Words
	f.queue = words[1:]
	f.qAddr = cia
	f.qNext = next
	f.qRank = it.Rank
	f.qIdx = 0
	fi := machine.FetchInfo{
		Word: words[0], CIA: cia, Next: next, NextOK: len(words) == 1,
		MemAddr: memAddr, MemBytes: memBytes,
		EntryRank: it.Rank, EntryLen: len(words),
	}
	if f.dictBase != 0 {
		// With a memory-resident dictionary, the first expanded word costs
		// a dictionary access on top of the codeword fetch.
		fi.MemAddr2 = f.dictBase + f.entryOff[it.Rank]
		fi.MemBytes2 = 4
	}
	return fi, nil
}

// byteAddr maps a unit address to the byte address of the underlying
// program memory, for cache modeling.
func (f *CompressedFrontend) byteAddr(unitAddr uint32) uint32 {
	rel := unitAddr - f.img.Base
	return f.img.Base + rel*uint32(f.img.Scheme.UnitBits())/8
}

// NewMachineDictInMemory builds a CPU whose traffic model places the
// dictionary in program memory at the given base address instead of
// on-chip (see Image.Frontend semantics and §3.3).
func NewMachineDictInMemory(img *Image, dictBase uint32) (*machine.CPU, error) {
	cpu, err := NewMachine(img)
	if err != nil {
		return nil, err
	}
	cpu.Frontend().(*CompressedFrontend).SetDictInMemory(dictBase)
	return cpu, nil
}

// NewMachine builds a CPU executing the compressed image, with data and
// stack mapped exactly as for the original program.
func NewMachine(img *Image) (*machine.CPU, error) {
	return machine.NewGuest(machine.NewMemory(), NewCompressedFrontend(img), img.DataBase, img.Data, img.EntryUnit)
}

// RunBoth executes the original program and its compressed image and
// checks behavioral equivalence: identical syscall output and exit status.
// It returns both CPUs for further inspection (fetch statistics, etc.).
func RunBoth(p *program.Program, img *Image, maxSteps int64) (*machine.CPU, *machine.CPU, error) {
	orig, err := machine.NewForProgram(p)
	if err != nil {
		return nil, nil, err
	}
	st1, err := orig.Run(maxSteps)
	if err != nil {
		return nil, nil, fmt.Errorf("core: original execution: %w", err)
	}
	comp, err := NewMachine(img)
	if err != nil {
		return nil, nil, err
	}
	st2, err := comp.Run(maxSteps)
	if err != nil {
		return nil, nil, fmt.Errorf("core: compressed execution: %w", err)
	}
	if st1 != st2 {
		return orig, comp, fmt.Errorf("core: exit status differs: %d vs %d", st1, st2)
	}
	if string(orig.Output()) != string(comp.Output()) {
		return orig, comp, fmt.Errorf("core: output differs: %q vs %q", orig.Output(), comp.Output())
	}
	return orig, comp, nil
}
