// Package machine executes PowerPC-subset programs. It provides the CPU
// state and interpreter, a sparse memory, and the fetch-frontend interface
// of the paper's Figure 3: the same execution core runs either from normal
// program memory or from a compressed instruction stream expanded through a
// dictionary in the decode stage.
package machine

import (
	"bytes"
	"fmt"
	"math"
	"math/bits"

	"repro/internal/ppc"
	"repro/internal/program"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Syscall numbers (passed in r0; sc transfers to the host).
const (
	SysExit    = 0 // r3 = exit status
	SysPutchar = 1 // r3 = byte
	SysPutint  = 2 // r3 = signed integer, printed in decimal
	SysPuts    = 3 // r3 = address of NUL-terminated string
)

// Memory layout for stacks.
const (
	stackTop  = 0x7FF0_0000
	stackSize = 1 << 20
	heapExtra = 1 << 16 // slack beyond the data image for generated code
)

// Stats accumulates execution counters.
type Stats struct {
	Steps         int64 // instructions executed
	TakenBranches int64
	Syscalls      int64
	MemFetches    int64 // fetches that touched program memory
	FetchedBytes  int64 // program-memory bytes fetched
	Expanded      int64 // instructions produced by dictionary expansion (compressed mode)
}

// CPU is the architectural state plus the fetch frontend.
type CPU struct {
	GPR [32]uint32
	LR  uint32
	CTR uint32
	CR  uint32 // bit 0 (MSB) = CR field 0 bit LT, IBM numbering

	Mem *Memory

	fe  Frontend
	out bytes.Buffer

	// TraceFetch, when non-nil, receives the memory traffic of every fetch
	// (for cache simulation).
	TraceFetch func(addr uint32, nbytes int)

	// TraceExec, when non-nil, receives every executed instruction with
	// its fetch address (PC space of the active frontend).
	TraceExec func(cia uint32, word uint32)

	// TraceStep, when non-nil, receives every executed instruction after
	// its architectural effects: the FetchInfo plus the control transfer
	// the instruction performed (the guest profiler's hook). It fires once
	// per Step, even for the instruction that exits the program, so the
	// number of deliveries equals Stats.Steps.
	TraceStep func(StepInfo)

	// Record, when non-nil, receives the execution counters of every Run
	// (machine.steps, machine.expanded, machine.fetched_bytes — deltas per
	// Run, so repeated Runs on one CPU accumulate correctly) plus the
	// machine.expansion_len histogram: the entry length of every codeword
	// expansion the frontend begins.
	Record *stats.Recorder

	// Heat, when non-nil (enable with EnableHeat), accumulates the
	// dictionary-entry heat map: Heat[rank] counts the codeword fetches
	// that began expanding that entry.
	Heat []int64

	Stats Stats

	// Fast accumulates the fused fast loop's always-on telemetry: steps
	// it executed and every exit or refusal classified by BailReason.
	// Fast.Coverage(Stats.Steps) is the fast-path share of execution.
	Fast FastStats

	// EpochSteps bounds one telemetry epoch when epoch sampling is
	// enabled (EnableEpochSampling / TraceEpochs); zero selects
	// DefaultEpochSteps. Without sampling the fast loop runs unchunked.
	EpochSteps int64

	sampleRec   *stats.Recorder // epoch-sampling sink (EnableEpochSampling)
	sampleObs   EpochObserver   // per-slot traffic consumer (EnableEpochSampling)
	epochParent *trace.Span     // per-epoch span parent (TraceEpochs)
	epochSpan   *trace.Span     // span of the epoch in flight
	traffic     []SlotTraffic   // per-CPU slot counters, drained each epoch
	touched     []int32         // slots with traffic this epoch, first-touch order
	trafficPD   *Predecode      // table the accumulated traffic indexes
	sinceDrain  int64           // fast steps accumulated since the last drain

	branch takenBranch // control transfer of the instruction being executed
	exited bool
	status int32

	snap *resetState // architectural state SnapshotReset captured, for Reset
}

// resetState is the architectural state Reset restores: registers plus the
// entry PC. Memory contents are snapshotted by Memory.Snapshot.
type resetState struct {
	gpr [32]uint32
	lr  uint32
	ctr uint32
	cr  uint32
	pc  uint32
}

// BranchKind classifies the control transfer an executed instruction
// performed, as observed by TraceStep. Classification follows the link
// semantics of the PowerPC branch family: any taken branch that sets LR is
// a call (bl, bcl, bctrl, blrl), a taken bclr that does not set LR is a
// return (blr and its conditional variants), and every other taken branch
// — including bctr, which jump tables and far-branch stubs use — is a
// plain jump.
type BranchKind uint8

// Control-transfer kinds.
const (
	BranchNone   BranchKind = iota // no transfer (or branch not taken)
	BranchJump                     // taken branch without link (b, bc, bctr)
	BranchCall                     // taken branch with LK set
	BranchReturn                   // taken bclr without LK
)

// takenBranch records the transfer exec performed during the current Step.
type takenBranch struct {
	Kind   BranchKind
	Target uint32
}

// StepInfo is what TraceStep observers receive: the executed instruction's
// fetch description plus the control transfer it performed. Target and
// Next are addresses in the PC space of the active frontend (byte
// addresses on the normal path, absolute unit addresses on the compressed
// path), so call/return matching works identically in both modes.
type StepInfo struct {
	FetchInfo
	Branch BranchKind
	Target uint32 // PC-space branch target when Branch != BranchNone
}

// New creates a CPU over the given memory and frontend.
func New(mem *Memory, fe Frontend) *CPU {
	return &CPU{Mem: mem, fe: fe}
}

// NewForProgram maps a linked program into a fresh machine with the normal
// (uncompressed) fetch path, ready to Run.
func NewForProgram(p *program.Program) (*CPU, error) {
	mem := NewMemory()
	if err := mem.Map("text", p.TextBase, WordsToBytes(p.Text)); err != nil {
		return nil, err
	}
	fe := NewNormalFrontend(mem, p.TextBase, len(p.Text))
	return NewGuest(mem, fe, p.DataBase, p.Data, p.EntryAddr())
}

// NewGuest completes a machine over fe with the one guest memory layout
// every fetch path shares: it maps a copy of data plus heapExtra bytes of
// slack at dataBase and a stackSize-byte stack ending at stackTop into mem
// (after any text the caller mapped), positions fe at entry, sets the
// stack pointer, and snapshots that state for Reset, so fe must report its
// PC as SnapshotReset requires.
func NewGuest(mem *Memory, fe Frontend, dataBase uint32, data []byte, entry uint32) (*CPU, error) {
	buf := make([]byte, len(data)+heapExtra)
	copy(buf, data)
	if err := mem.Map("data", dataBase, buf); err != nil {
		return nil, err
	}
	if err := mem.Map("stack", stackTop-stackSize, make([]byte, stackSize)); err != nil {
		return nil, err
	}
	cpu := New(mem, fe)
	if err := fe.Reset(entry); err != nil {
		return nil, err
	}
	cpu.GPR[1] = stackTop - 64 // stack pointer with a red zone
	if err := cpu.SnapshotReset(); err != nil {
		return nil, err
	}
	return cpu, nil
}

// SnapshotReset captures the CPU's current architectural state — registers,
// PC, and every memory region's contents — as the state Reset restores.
// Constructors call it once setup is complete, so a freshly built machine
// can be Run repeatedly without re-mapping ~MBs of memory per run.
func (c *CPU) SnapshotReset() error {
	pcer, ok := c.fe.(interface{ PC() uint32 })
	if !ok {
		return fmt.Errorf("machine: frontend %T cannot report its PC for snapshot", c.fe)
	}
	c.Mem.Snapshot()
	c.snap = &resetState{gpr: c.GPR, lr: c.LR, ctr: c.CTR, cr: c.CR, pc: pcer.PC()}
	return nil
}

// Reset rewinds the machine to its SnapshotReset state: registers, memory,
// PC, accumulated output, exit state, Stats, and Fast all return to their
// post-construction values, reusing every allocation. Hooks (TraceFetch,
// TraceExec, TraceStep, Record, Heat) and epoch-sampling sinks are left
// attached.
func (c *CPU) Reset() error {
	if c.snap == nil {
		return fmt.Errorf("machine: Reset without a prior SnapshotReset")
	}
	if err := c.Mem.Reset(); err != nil {
		return err
	}
	c.GPR = c.snap.gpr
	c.LR = c.snap.lr
	c.CTR = c.snap.ctr
	c.CR = c.snap.cr
	c.out.Reset()
	c.Stats = Stats{}
	c.Fast = FastStats{}
	// The epoch in flight (sinceDrain, traffic, touched, epochSpan) is NOT
	// reset: epochs are intervals of the machine's lifetime, deliberately
	// spanning the Reset+Run request cycle so telemetry drains on the epoch
	// cadence rather than per request.
	c.branch = takenBranch{}
	c.exited = false
	c.status = 0
	return c.fe.Reset(c.snap.pc)
}

// EnableHeat allocates the dictionary-entry heat map for a dictionary of
// the given size; fetches attributed to an entry rank beyond it are
// dropped.
func (c *CPU) EnableHeat(entries int) { c.Heat = make([]int64, entries) }

// Output returns everything the program printed through syscalls.
func (c *CPU) Output() []byte { return c.out.Bytes() }

// Frontend returns the fetch frontend driving this CPU.
func (c *CPU) Frontend() Frontend { return c.fe }

// Exited reports whether the program performed SysExit, and its status.
func (c *CPU) Exited() (bool, int32) { return c.exited, c.status }

// Run executes until SysExit or the step budget is exhausted. It returns
// the exit status. Exceeding the budget or any architectural fault is an
// error.
//
// When every hook (TraceFetch/TraceExec/TraceStep/Record/Heat) is nil and
// the frontend supplies a predecode table, Run drives the fused
// fetch+execute fast loop; attaching any hook transparently selects the
// instrumented Step path, so observability features see every event.
// Epoch sampling (EnableEpochSampling, TraceEpochs) is deliberately NOT a
// hook: it observes the fast loop from its epoch boundaries, so sampled
// runs stay fused. Every Run classifies how the fast path ended — or why
// it never started — in Fast.Bails.
func (c *CPU) Run(maxSteps int64) (int32, error) {
	if c.Record != nil {
		before := c.Stats
		defer func() {
			c.Record.Add("machine.steps", c.Stats.Steps-before.Steps)
			c.Record.Add("machine.expanded", c.Stats.Expanded-before.Expanded)
			c.Record.Add("machine.fetched_bytes", c.Stats.FetchedBytes-before.FetchedBytes)
		}()
	}
	if rec := c.fastpathRec(); rec != nil {
		fastBefore, stepsBefore := c.Fast, c.Stats.Steps
		defer func() { c.exportFastpath(rec, fastBefore, stepsBefore) }()
	}
	if c.TraceFetch == nil && c.TraceExec == nil && c.TraceStep == nil &&
		c.Record == nil && c.Heat == nil {
		if fe, ok := c.fe.(PredecodedFrontend); ok {
			if pd := fe.Predecode(); pd != nil {
				st, done, err := c.runFast(fe, pd, maxSteps)
				if done {
					return st, err
				}
				// The fast loop bailed with work left (fault slot,
				// off-table PC, stale table): the instrumented loop
				// finishes the run, so faults have one implementation.
				return c.runSlow(maxSteps)
			}
		}
		c.Fast.Bails[BailFrontendRefused]++
	} else {
		c.Fast.Bails[BailHookAttached]++
	}
	return c.runSlow(maxSteps)
}

// runSlow is the instrumented reference loop: one Step per instruction,
// every hook honored. The fused fast loop delegates here whenever
// anything unusual happens, so faults and edge cases have exactly one
// implementation.
func (c *CPU) runSlow(maxSteps int64) (int32, error) {
	for c.Stats.Steps < maxSteps {
		if err := c.Step(); err != nil {
			return 0, err
		}
		if c.exited {
			return c.status, nil
		}
	}
	return 0, fmt.Errorf("machine: step budget of %d exhausted", maxSteps)
}

// traceAccess accounts one program-memory access of a fetch and forwards
// it to the TraceFetch hook. This is the single place FetchInfo's access
// contract is enforced: MemAddr/MemBytes is the primary access (the
// instruction or codeword fetch itself; MemBytes == 0 exactly when the
// instruction was expanded from an on-chip dictionary and touched no
// program memory), MemAddr2/MemBytes2 is the optional secondary access (a
// memory-resident dictionary-entry fetch). Each access flows through here
// exactly once, in fetch order, so Stats.MemFetches/FetchedBytes and the
// cache simulation agree on what the memory interface saw.
func (c *CPU) traceAccess(addr uint32, nbytes int) {
	c.Stats.MemFetches++
	c.Stats.FetchedBytes += int64(nbytes)
	if c.TraceFetch != nil {
		c.TraceFetch(addr, nbytes)
	}
}

// Step fetches and executes one instruction.
func (c *CPU) Step() error {
	fi, err := c.fe.Fetch()
	if err != nil {
		return err
	}
	c.Stats.Steps++
	if fi.MemBytes > 0 {
		c.traceAccess(fi.MemAddr, fi.MemBytes)
	} else {
		c.Stats.Expanded++
	}
	if fi.MemBytes2 > 0 {
		c.traceAccess(fi.MemAddr2, fi.MemBytes2)
	}
	if fi.EntryLen > 0 {
		if c.Heat != nil && fi.EntryRank < len(c.Heat) {
			c.Heat[fi.EntryRank]++
		}
		if c.Record != nil {
			c.Record.ObserveValue("machine.expansion_len", int64(fi.EntryLen))
		}
	}
	if c.TraceExec != nil {
		c.TraceExec(fi.CIA, fi.Word)
	}
	c.branch = takenBranch{}
	i := ppc.Decode(fi.Word)
	err = c.exec(&i, fi.Word, fi.CIA, fi.Next, fi.NextOK)
	if c.TraceStep != nil {
		c.TraceStep(StepInfo{FetchInfo: fi, Branch: c.branch.Kind, Target: c.branch.Target})
	}
	return err
}

// branchTo records a taken control transfer and redirects fetch. The
// recorded kind/target reach TraceStep observers after exec completes.
func (c *CPU) branchTo(target uint32, kind BranchKind) error {
	c.Stats.TakenBranches++
	c.branch = takenBranch{Kind: kind, Target: target}
	return c.fe.SetPC(target)
}

// exec applies one decoded instruction. cia/next/nextOK are the fetch
// addresses in the active frontend's PC space; word is the raw encoding,
// kept only for error text. Both the instrumented Step path and the fused
// fast loop call this, so architectural semantics live in one place.
func (c *CPU) exec(i *ppc.Inst, word, cia, next uint32, nextOK bool) error {
	g := &c.GPR
	switch i.Op {
	case ppc.OpInvalid:
		return fmt.Errorf("machine: illegal instruction %08x at %#x", word, cia)

	case ppc.OpAddi:
		g[i.RT] = c.regOrZero(i.RA) + uint32(i.Imm)
	case ppc.OpAddis:
		g[i.RT] = c.regOrZero(i.RA) + uint32(i.Imm)<<16
	case ppc.OpOri:
		g[i.RA] = g[i.RT] | uint32(uint16(i.Imm))
	case ppc.OpOris:
		g[i.RA] = g[i.RT] | uint32(uint16(i.Imm))<<16
	case ppc.OpAndiRc:
		g[i.RA] = g[i.RT] & uint32(uint16(i.Imm))
		c.setCR0(g[i.RA])
	case ppc.OpXori:
		g[i.RA] = g[i.RT] ^ uint32(uint16(i.Imm))

	case ppc.OpCmpwi:
		c.setCRSigned(i.CRF, int32(g[i.RA]), i.Imm)
	case ppc.OpCmplwi:
		c.setCRUnsigned(i.CRF, g[i.RA], uint32(uint16(i.Imm)))
	case ppc.OpCmpw:
		c.setCRSigned(i.CRF, int32(g[i.RA]), int32(g[i.RB]))
	case ppc.OpCmplw:
		c.setCRUnsigned(i.CRF, g[i.RA], g[i.RB])

	case ppc.OpLwz:
		v, err := c.Mem.Load32(c.regOrZero(i.RA) + uint32(i.Imm))
		if err != nil {
			return err
		}
		g[i.RT] = v
	case ppc.OpLbz:
		v, err := c.Mem.Load8(c.regOrZero(i.RA) + uint32(i.Imm))
		if err != nil {
			return err
		}
		g[i.RT] = uint32(v)
	case ppc.OpLhz:
		v, err := c.Mem.Load16(c.regOrZero(i.RA) + uint32(i.Imm))
		if err != nil {
			return err
		}
		g[i.RT] = uint32(v)
	case ppc.OpStw:
		if err := c.Mem.Store32(c.regOrZero(i.RA)+uint32(i.Imm), g[i.RT]); err != nil {
			return err
		}
	case ppc.OpStb:
		if err := c.Mem.Store8(c.regOrZero(i.RA)+uint32(i.Imm), uint8(g[i.RT])); err != nil {
			return err
		}
	case ppc.OpSth:
		if err := c.Mem.Store16(c.regOrZero(i.RA)+uint32(i.Imm), uint16(g[i.RT])); err != nil {
			return err
		}
	case ppc.OpStwu:
		ea := g[i.RA] + uint32(i.Imm)
		if err := c.Mem.Store32(ea, g[i.RT]); err != nil {
			return err
		}
		g[i.RA] = ea
	case ppc.OpLmw:
		ea := c.regOrZero(i.RA) + uint32(i.Imm)
		for r := int(i.RT); r <= 31; r++ {
			v, err := c.Mem.Load32(ea)
			if err != nil {
				return err
			}
			g[r] = v
			ea += 4
		}
	case ppc.OpStmw:
		ea := c.regOrZero(i.RA) + uint32(i.Imm)
		for r := int(i.RT); r <= 31; r++ {
			if err := c.Mem.Store32(ea, g[r]); err != nil {
				return err
			}
			ea += 4
		}
	case ppc.OpLwzx:
		v, err := c.Mem.Load32(c.regOrZero(i.RA) + g[i.RB])
		if err != nil {
			return err
		}
		g[i.RT] = v
	case ppc.OpStwx:
		if err := c.Mem.Store32(c.regOrZero(i.RA)+g[i.RB], g[i.RT]); err != nil {
			return err
		}
	case ppc.OpLbzx:
		v, err := c.Mem.Load8(c.regOrZero(i.RA) + g[i.RB])
		if err != nil {
			return err
		}
		g[i.RT] = uint32(v)
	case ppc.OpLhzx:
		v, err := c.Mem.Load16(c.regOrZero(i.RA) + g[i.RB])
		if err != nil {
			return err
		}
		g[i.RT] = uint32(v)
	case ppc.OpStbx:
		if err := c.Mem.Store8(c.regOrZero(i.RA)+g[i.RB], uint8(g[i.RT])); err != nil {
			return err
		}
	case ppc.OpSthx:
		if err := c.Mem.Store16(c.regOrZero(i.RA)+g[i.RB], uint16(g[i.RT])); err != nil {
			return err
		}

	case ppc.OpAdd:
		g[i.RT] = g[i.RA] + g[i.RB]
		if i.Rc {
			c.setCR0(g[i.RT])
		}
	case ppc.OpSubf:
		g[i.RT] = g[i.RB] - g[i.RA]
		if i.Rc {
			c.setCR0(g[i.RT])
		}
	case ppc.OpNeg:
		g[i.RT] = -g[i.RA]
		if i.Rc {
			c.setCR0(g[i.RT])
		}
	case ppc.OpMullw:
		g[i.RT] = uint32(int32(g[i.RA]) * int32(g[i.RB]))
		if i.Rc {
			c.setCR0(g[i.RT])
		}
	case ppc.OpDivw:
		a, b := int32(g[i.RA]), int32(g[i.RB])
		var q int32
		switch {
		case b == 0, a == math.MinInt32 && b == -1:
			q = 0 // architecturally undefined; pinned for determinism
		default:
			q = a / b
		}
		g[i.RT] = uint32(q)
		if i.Rc {
			c.setCR0(g[i.RT])
		}

	case ppc.OpAnd:
		g[i.RA] = g[i.RT] & g[i.RB]
		if i.Rc {
			c.setCR0(g[i.RA])
		}
	case ppc.OpOr:
		g[i.RA] = g[i.RT] | g[i.RB]
		if i.Rc {
			c.setCR0(g[i.RA])
		}
	case ppc.OpXor:
		g[i.RA] = g[i.RT] ^ g[i.RB]
		if i.Rc {
			c.setCR0(g[i.RA])
		}
	case ppc.OpNor:
		g[i.RA] = ^(g[i.RT] | g[i.RB])
		if i.Rc {
			c.setCR0(g[i.RA])
		}
	case ppc.OpSlw:
		sh := g[i.RB] & 0x3F
		if sh > 31 {
			g[i.RA] = 0
		} else {
			g[i.RA] = g[i.RT] << sh
		}
		if i.Rc {
			c.setCR0(g[i.RA])
		}
	case ppc.OpSrw:
		sh := g[i.RB] & 0x3F
		if sh > 31 {
			g[i.RA] = 0
		} else {
			g[i.RA] = g[i.RT] >> sh
		}
		if i.Rc {
			c.setCR0(g[i.RA])
		}
	case ppc.OpSraw:
		sh := g[i.RB] & 0x3F
		if sh > 31 {
			sh = 31
		}
		g[i.RA] = uint32(int32(g[i.RT]) >> sh)
		if i.Rc {
			c.setCR0(g[i.RA])
		}
	case ppc.OpSrawi:
		g[i.RA] = uint32(int32(g[i.RT]) >> i.SH)
		if i.Rc {
			c.setCR0(g[i.RA])
		}
	case ppc.OpExtsb:
		g[i.RA] = uint32(int32(int8(g[i.RT])))
		if i.Rc {
			c.setCR0(g[i.RA])
		}
	case ppc.OpExtsh:
		g[i.RA] = uint32(int32(int16(g[i.RT])))
		if i.Rc {
			c.setCR0(g[i.RA])
		}
	case ppc.OpRlwinm:
		r := bits.RotateLeft32(g[i.RT], int(i.SH))
		g[i.RA] = r & maskMBME(i.MB, i.ME)
		if i.Rc {
			c.setCR0(g[i.RA])
		}

	case ppc.OpMfspr:
		switch i.SPR {
		case ppc.SprLR:
			g[i.RT] = c.LR
		case ppc.SprCTR:
			g[i.RT] = c.CTR
		default:
			return fmt.Errorf("machine: mfspr %d unsupported", i.SPR)
		}
	case ppc.OpMtspr:
		switch i.SPR {
		case ppc.SprLR:
			c.LR = g[i.RT]
		case ppc.SprCTR:
			c.CTR = g[i.RT]
		default:
			return fmt.Errorf("machine: mtspr %d unsupported", i.SPR)
		}

	case ppc.OpB:
		if i.AA {
			return fmt.Errorf("machine: absolute branch at %#x unsupported", cia)
		}
		if i.LK {
			if !nextOK {
				return fmt.Errorf("machine: link branch with unaddressable successor at %#x", cia)
			}
			c.LR = next
		}
		return c.branchTo(c.fe.RelTarget(cia, i.Imm>>2), linkKind(i.LK))
	case ppc.OpBc:
		if i.AA {
			return fmt.Errorf("machine: absolute branch at %#x unsupported", cia)
		}
		taken := c.branchCond(i.BO, i.BI)
		if i.LK {
			if !nextOK {
				return fmt.Errorf("machine: link branch with unaddressable successor at %#x", cia)
			}
			c.LR = next
		}
		if taken {
			return c.branchTo(c.fe.RelTarget(cia, i.Imm>>2), linkKind(i.LK))
		}
	case ppc.OpBclr:
		taken := c.branchCond(i.BO, i.BI)
		target := c.LR
		if i.LK {
			if !nextOK {
				return fmt.Errorf("machine: link branch with unaddressable successor at %#x", cia)
			}
			c.LR = next
		}
		if taken {
			kind := BranchReturn
			if i.LK {
				kind = BranchCall
			}
			return c.branchTo(target, kind)
		}
	case ppc.OpBcctr:
		taken := c.branchCond(i.BO, i.BI)
		if i.LK {
			if !nextOK {
				return fmt.Errorf("machine: link branch with unaddressable successor at %#x", cia)
			}
			c.LR = next
		}
		if taken {
			return c.branchTo(c.CTR, linkKind(i.LK))
		}

	case ppc.OpSc:
		c.Stats.Syscalls++
		return c.syscall()

	default:
		return fmt.Errorf("machine: unimplemented op %v at %#x", i.Op, cia)
	}
	return nil
}

// linkKind maps a branch's LK bit to its transfer kind for non-bclr
// branches: setting the link register makes the transfer a call.
func linkKind(lk bool) BranchKind {
	if lk {
		return BranchCall
	}
	return BranchJump
}

// regOrZero implements the RA=0-means-zero convention of addi/addis and
// load/store effective-address computation.
func (c *CPU) regOrZero(ra uint8) uint32 {
	if ra == 0 {
		return 0
	}
	return c.GPR[ra]
}

// branchCond evaluates the BO/BI fields, decrementing CTR when required.
func (c *CPU) branchCond(bo, bi uint8) bool {
	ctrOK := true
	if bo&4 == 0 {
		c.CTR--
		ctrZero := c.CTR == 0
		ctrOK = ctrZero == (bo&2 != 0)
	}
	condOK := true
	if bo&16 == 0 {
		bit := c.CR>>(31-uint(bi))&1 == 1
		condOK = bit == (bo&8 != 0)
	}
	return ctrOK && condOK
}

func (c *CPU) setCRField(crf uint8, lt, gt, eq bool) {
	shift := 28 - 4*uint(crf)
	var v uint32
	if lt {
		v |= 8
	}
	if gt {
		v |= 4
	}
	if eq {
		v |= 2
	}
	c.CR = c.CR&^(uint32(0xF)<<shift) | v<<shift
}

func (c *CPU) setCRSigned(crf uint8, a, b int32) {
	c.setCRField(crf, a < b, a > b, a == b)
}

func (c *CPU) setCRUnsigned(crf uint8, a, b uint32) {
	c.setCRField(crf, a < b, a > b, a == b)
}

func (c *CPU) setCR0(v uint32) { c.setCRSigned(0, int32(v), 0) }

// CRBit returns CR bit i (IBM numbering, bit 0 = MSB).
func (c *CPU) CRBit(i uint8) bool { return c.CR>>(31-uint(i))&1 == 1 }

// maskMBME builds the rlwinm mask covering IBM bits MB..ME inclusive,
// wrapping when MB > ME.
func maskMBME(mb, me uint8) uint32 {
	m1 := ^uint32(0) >> mb
	var m2 uint32
	if me < 31 {
		m2 = ^uint32(0) >> (me + 1)
	}
	if mb <= me {
		return m1 &^ m2
	}
	return m1 | ^m2
}

func (c *CPU) syscall() error {
	switch c.GPR[0] {
	case SysExit:
		c.exited = true
		c.status = int32(c.GPR[3])
	case SysPutchar:
		c.out.WriteByte(byte(c.GPR[3]))
	case SysPutint:
		fmt.Fprintf(&c.out, "%d", int32(c.GPR[3]))
	case SysPuts:
		s, err := c.Mem.CString(c.GPR[3], 1<<16)
		if err != nil {
			return err
		}
		c.out.WriteString(s)
	default:
		return fmt.Errorf("machine: unknown syscall %d", c.GPR[0])
	}
	return nil
}
