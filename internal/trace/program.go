package trace

import (
	"repro/internal/bytecode"
	"repro/internal/cfg"
)

// Program is the executable form of a trace, and the only one: the block
// sequence as segments the engine walks. Lower builds the unfused program —
// each segment is its block, run through the interpreter's own instruction
// and terminator executors — and Compile the fused one, whose segments carry
// superinstructions and lowered terminators; tier 1 runs the former, tier 2
// the latter, through the same loop. A Program is immutable once built and
// holds no run state, so one may back many traces (the compiled store
// hash-conses fused programs per merged view) and run on any number of
// machines at once.
//
// The two forms are exactly state-equivalent: either advances the operand
// stack, locals, heap, statics, trace accounting and stats.Counters as
// block-by-block dispatch of the same blocks would — same trap kinds at the
// same PCs, same hook-edge stream — differing only in the tiered-execution
// counters. Every segment boundary holds exact frame state, so a guard
// exit, a probe or a budget trap there sees what the interpreter would.
type Program struct {
	// Segs mirror the trace's Blocks one-to-one.
	Segs []Segment

	// Fused marks a program built by Compile. An unfused program's segments
	// have no Ops and TGeneric terminators: the engine runs each block's own
	// Instrs instead.
	Fused bool

	// TotalInstrs is the bytecode instruction count over all segments, used
	// to pre-check the step budget at trace entry: if the whole trace fits,
	// no per-segment limit checks are needed.
	TotalInstrs int64

	// What Compile removed, counted while lowering and never read on the
	// dispatch path. DroppedGuards: proven side-exit guards lowered to static
	// jumps (reported with the trace-compiled event). Folded: arithmetic,
	// conversion and comparison ops evaluated away because every operand was
	// a compile-time constant. Forwarded: local loads replaced by the
	// constant known to be in the slot. Decided: unproven conditionals and
	// switches whose outcome the constants fixed, lowered to static jumps.
	DroppedGuards, Folded, Forwarded, Decided int
}

// Emitted returns the runtime work a fused program kept: superinstructions
// plus terminators that still execute (every kind but TStatic). Compile
// never emits more than it consumed — Emitted() <= TotalInstrs — because each
// deferred value is created by one instruction that itself emitted nothing.
func (p *Program) Emitted() int64 {
	var n int64
	for i := range p.Segs {
		n += int64(len(p.Segs[i].Ops))
		if p.Segs[i].Term.Kind != TStatic {
			n++
		}
	}
	return n
}

// Lower builds the unfused program over a resolved block sequence (the
// canonical ProgramCFG blocks: the engine compares successor pointers to
// detect side exits). It cannot fail; Compile starts from the same skeleton.
func Lower(blocks []*cfg.Block) *Program {
	p := &Program{Segs: make([]Segment, len(blocks))}
	for i, b := range blocks {
		n := int64(len(b.Instrs))
		p.Segs[i] = Segment{Block: b, NInstrs: n}
		p.TotalInstrs += n
	}
	return p
}

// Segment is one block of the trace in executable form: in a fused program,
// a superinstruction sequence plus a lowered terminator.
type Segment struct {
	// Block is the resolved source block; side exits and TGeneric
	// terminators hand it back to the interpreter paths unchanged.
	Block *cfg.Block
	// NInstrs is the block's bytecode instruction count, bulk-added to
	// Counters.Instrs at segment entry exactly as stepBlock does.
	NInstrs int64
	Ops     []SOp
	Term    Term
}

// SOpKind selects a superinstruction executor.
type SOpKind uint8

const (
	// SExec runs Block.Instrs[A] through the interpreter's single-op
	// executor — the universal fallback for ops the compiler does not
	// specialize.
	SExec SOpKind = iota
	// SPushConst pushes Value{N: Val} (an int, float bit pattern, or null
	// — the machine's Value is untyped).
	SPushConst
	// SPushLocal pushes locals[A].
	SPushLocal
	// SStoreLocal pops into locals[A].
	SStoreLocal
	// SStoreConst stores Value{N: Val} to locals[A] without stack traffic:
	// a fused const+store.
	SStoreConst
	// SMove copies locals[B] to locals[A] without stack traffic: a fused
	// load+store.
	SMove
	// SIncLocal adds Val to locals[A].N (iinc).
	SIncLocal
	// SBin is a specialized arithmetic op: operand sources per Mode, result
	// stored to locals[Dst] when Dst >= 0 (a fused load+load+binop+store)
	// or pushed when Dst < 0.
	SBin
)

// Operand-source modes for SBin and TCondII, packed in Mode.
const (
	// SrcLL: a = locals[A], b = locals[B].
	SrcLL uint8 = iota
	// SrcLC: a = locals[A], b = Value{N: Val}.
	SrcLC
	// SrcCL: a = Value{N: Val}, b = locals[B].
	SrcCL
	// SrcL: unary, a = locals[A].
	SrcL
)

// SOp is one superinstruction. Operand meaning depends on Kind; PC is the
// source instruction's PC for trap attribution.
type SOp struct {
	Kind SOpKind
	Op   bytecode.Op
	Mode uint8
	A    int32
	B    int32
	// Dst is the destination local for SBin, or -1 to push.
	Dst int32
	Val int64
	PC  uint32
}

// TermKind selects a lowered terminator executor.
type TermKind uint8

const (
	// TGeneric delegates to the interpreter's terminator executor —
	// branches with unspecialized operands, switches, calls, returns,
	// halt, throw.
	TGeneric TermKind = iota
	// TStatic continues to Static with zero runtime work: gotos,
	// fallthroughs, branches decided at compile time, and proven guards
	// whose operands were fully consumed symbolically.
	TStatic
	// TPopStatic pops PopN values then continues to Static: proven guards
	// whose condition operands are runtime values the compiler could not
	// absorb.
	TPopStatic
	// TCondI is a one-operand int conditional (ifeq..ifle) whose operand
	// the compiler specialized: a = locals[A] (Mode SrcL) or Value{N: Val}
	// is never needed — a constant operand folds to TStatic.
	TCondI
	// TCondII is a two-operand int compare (if_icmp*) with sources per
	// Mode, as in SBin.
	TCondII
)

// Term is a segment's lowered terminator. Taken/Fall are the resolved branch
// targets for the conditional kinds; Static is the sole successor for
// TStatic/TPopStatic.
type Term struct {
	Kind   TermKind
	Op     bytecode.Op
	Mode   uint8
	A      int32
	B      int32
	Val    int64
	PopN   int32
	Static *cfg.Block
	Taken  *cfg.Block
	Fall   *cfg.Block
}

// Tiering is the promotion policy the dispatch engine consults: Compile is
// called once a cached trace's dispatch count crosses its tier-up threshold
// and returns the fused program (nil means the trace stays on its unfused
// one and is barred from retrying), and TierDown is notified after the
// engine discards a fused program following a guard-exit storm. Implemented
// by the trace cache in internal/core.
type Tiering interface {
	Compile(t *Trace) *Program
	TierDown(t *Trace)
}
