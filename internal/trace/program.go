package trace

import "repro/internal/cfg"

// Program is the executable form of a trace: the block sequence as
// segments the engine walks, each run through the interpreter's own
// instruction and terminator executors. It advances the operand stack,
// locals, heap, statics and stats.Counters exactly as block-by-block
// dispatch of the same blocks would — same trap kinds at the same PCs,
// same hook-edge stream — and every segment boundary holds exact frame
// state, so a guard exit, a probe or a budget trap there sees what the
// interpreter would. A Program is immutable once built and holds no run
// state.
type Program struct {
	// Segs mirror the trace's Blocks one-to-one.
	Segs []Segment

	// TotalInstrs is the bytecode instruction count over all segments, used
	// to pre-check the step budget at trace entry: if the whole trace fits,
	// no per-segment limit checks are needed.
	TotalInstrs int64
}

// Lower builds the program over a resolved block sequence (the canonical
// ProgramCFG blocks: the engine compares successor pointers to detect side
// exits). It cannot fail.
func Lower(blocks []*cfg.Block) *Program {
	p := &Program{Segs: make([]Segment, len(blocks))}
	for i, b := range blocks {
		n := int64(len(b.Instrs))
		p.Segs[i] = Segment{Block: b, NInstrs: n}
		p.TotalInstrs += n
	}
	return p
}

// Segment is one block of the trace in executable form.
type Segment struct {
	// Block is the resolved source block.
	Block *cfg.Block
	// NInstrs is the block's bytecode instruction count, bulk-added to
	// Counters.Instrs at segment entry exactly as stepBlock does.
	NInstrs int64
}
