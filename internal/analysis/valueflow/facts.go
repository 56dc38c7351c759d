// Package valueflow computes whole-program value-flow facts for linked
// programs: sparse conditional constant propagation, integer value ranges,
// and reference nullness over the per-method CFGs, with a bounded
// call-site-summary interprocedural layer.
//
// The result is a per-block Facts table — constant locals and stack slots
// at block entry, branch outcomes decided by ranges, and references proven
// non-null — consumed three ways: by
// analysis.ComputeHintsWithFacts to pre-seed decided branches as
// unique-successor BCG hints, by the trace cache (through GuardOracle) to
// prove side-exit guards dead, and by `tracevm lint` as a report.
//
// Every fact is a universally quantified claim about dynamic execution
// ("whenever block B is entered, local 3 holds 7") and is differentially
// checked against the VM by the soundness harness in internal/harness.
// When the analysis cannot establish a fixpoint (unlinked input, CFG
// damage, signature-confused virtual dispatch, budget exhaustion) it
// degrades to the top table, which claims nothing.
package valueflow

import (
	"repro/internal/cfg"
)

// IntConst claims a local slot holds a known integer at block entry.
type IntConst struct {
	Slot int32
	Val  int64
}

// FloatConst claims a local slot holds a known float (by bit pattern) at
// block entry.
type FloatConst struct {
	Slot int32
	Bits uint64
}

// StackConst claims an operand-stack slot (indexed from the bottom) holds a
// known integer at block entry.
type StackConst struct {
	Idx int32
	Val int64
}

// BlockFacts is every proven claim about one basic block's entry state.
// The zero value (plus Decided == cfg.NoBlock) claims only "unreachable";
// unanalyzed programs get Reachable == true with no other claims.
type BlockFacts struct {
	// Reachable is false only when the analysis proved no execution can
	// enter the block.
	Reachable bool
	// Decided is the unique successor a conditional or switch terminator
	// must take, or cfg.NoBlock when undecided.
	Decided cfg.BlockID

	IntConsts   []IntConst
	FloatConsts []FloatConst
	NonNull     []int32 // local slots proven non-null
	StackConsts []StackConst
}

// Facts is the whole-program fact table, indexed by cfg.BlockID. A Facts
// value is immutable after Compute and safe for concurrent readers.
type Facts struct {
	blocks   []BlockFacts
	top      bool
	analyzed int // methods that reached a fixpoint
	reached  int // methods proven reachable from main
}

func newFacts(numBlocks int) *Facts {
	f := &Facts{blocks: make([]BlockFacts, numBlocks)}
	for i := range f.blocks {
		f.blocks[i].Decided = cfg.NoBlock
	}
	return f
}

// topFactsFor returns the table that claims nothing: every block reachable,
// nothing decided. It is the sound fallback for any analysis failure.
func topFactsFor(p *cfg.ProgramCFG) *Facts {
	n := 0
	if p != nil {
		n = p.NumBlocks()
	}
	f := newFacts(n)
	f.top = true
	for i := range f.blocks {
		f.blocks[i].Reachable = true
	}
	return f
}

// Top reports whether the table is the claim-free fallback.
func (f *Facts) Top() bool { return f == nil || f.top }

// FactsFromBlocks builds a table directly from per-block claims. It exists
// for differential-testing harnesses that must inject known-false claims to
// prove their checker catches them; Compute is the only production
// constructor. Callers must set each block's Decided explicitly (the
// BlockFacts zero value's Decided is block 0, not cfg.NoBlock).
func FactsFromBlocks(blocks []BlockFacts) *Facts {
	return &Facts{blocks: append([]BlockFacts(nil), blocks...)}
}

// NumBlocks returns the number of blocks covered by the table.
func (f *Facts) NumBlocks() int {
	if f == nil {
		return 0
	}
	return len(f.blocks)
}

// Block returns the facts for one block, or nil when out of range.
func (f *Facts) Block(id cfg.BlockID) *BlockFacts {
	if f == nil || int(id) >= len(f.blocks) {
		return nil
	}
	return &f.blocks[id]
}

// DecidedSucc returns the statically decided successor of a conditional or
// switch block, or cfg.NoBlock.
func (f *Facts) DecidedSucc(id cfg.BlockID) cfg.BlockID {
	if bf := f.Block(id); bf != nil {
		return bf.Decided
	}
	return cfg.NoBlock
}

// Stats summarizes the table for reports.
type Stats struct {
	Blocks          int
	Reachable       int
	Unreachable     int
	Decided         int
	IntConsts       int
	FloatConsts     int
	NonNull         int
	StackConsts     int
	MethodsReached  int
	MethodsAnalyzed int
	Top             bool
}

// Stats tallies every claim in the table.
func (f *Facts) Stats() Stats {
	var s Stats
	if f == nil {
		return s
	}
	s.Top = f.top
	s.Blocks = len(f.blocks)
	s.MethodsReached = f.reached
	s.MethodsAnalyzed = f.analyzed
	for i := range f.blocks {
		bf := &f.blocks[i]
		if bf.Reachable {
			s.Reachable++
		} else {
			s.Unreachable++
		}
		if bf.Decided != cfg.NoBlock {
			s.Decided++
		}
		s.IntConsts += len(bf.IntConsts)
		s.FloatConsts += len(bf.FloatConsts)
		s.NonNull += len(bf.NonNull)
		s.StackConsts += len(bf.StackConsts)
	}
	return s
}
