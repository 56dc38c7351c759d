package valueflow

import (
	"repro/internal/bytecode"
	"repro/internal/cfg"
	"repro/internal/classfile"
)

// GuardOracle proves side-exit guards of a recorded trace dead. A proof at
// position i is the claim "any execution that follows the trace to block
// Blocks[i] continues to Blocks[i+1]" — i.e. SideExits[i] can never fire —
// which is what lets a specializer drop the guard.
//
// Two tiers combine:
//
//  1. Whole-program facts: a terminator the fact table decided (or a
//     goto/fallthrough/call with a unique dynamic successor) is proven
//     regardless of trace context.
//  2. A trace-local symbolic walk: the state is seeded from the entry
//     block's facts and executed along the recorded path. Reaching
//     position i on the trace implies every earlier recorded branch
//     direction was taken, so the walk may condition its state on those
//     directions; a branch the conditioned state decides in the recorded
//     direction is proven. Call, return, and throw positions are frame
//     barriers: the walk re-seeds from the next block's entry facts.
//
// An oracle is immutable and safe for concurrent use; core.Cache calls it
// from trace registration. It must only be used with programs the verifier
// accepted (serve enforces that), since kind confusion in unverifiable
// code could mislead the walk.
type GuardOracle struct {
	f *Facts
	p *cfg.ProgramCFG
}

// NewOracle pairs a fact table with its program CFG. A nil or top table
// still yields a usable oracle: structural positions (goto, fallthrough,
// static calls) remain provable without facts.
func NewOracle(f *Facts, p *cfg.ProgramCFG) *GuardOracle {
	if p == nil {
		return nil
	}
	return &GuardOracle{f: f, p: p}
}

// ProveGuards returns, per inter-block position i (length len(blocks)-1),
// whether the successor guard is proven dead. It returns nil for traces
// shorter than two blocks.
func (o *GuardOracle) ProveGuards(blocks []cfg.BlockID) []bool {
	if o == nil || len(blocks) < 2 {
		return nil
	}
	proofs := make([]bool, len(blocks)-1)
	ev := evaluator{prog: o.p.Program, lenient: true}
	var st *absState
	for i := 0; i+1 < len(blocks); i++ {
		b := o.p.Block(blocks[i])
		next := blocks[i+1]
		if b == nil {
			return proofs
		}
		if st == nil {
			st = o.seed(b)
		}
		ev.bail = false
		for _, in := range b.Instrs[:len(b.Instrs)-1] {
			ev.exec(st, in)
		}
		if ev.bail {
			// Structural damage in the walk: drop the state, keep only
			// tier-1 structural/fact proofs from here on.
			st = o.seed(b)
			ev.bail = false
		}
		term := b.Terminator()
		switch b.Kind {
		case bytecode.FlowNext:
			ev.exec(st, *term)
			if ev.bail {
				st = nil
			}
			proofs[i] = b.FallThrough == next
		case bytecode.FlowGoto:
			proofs[i] = b.Taken == next
		case bytecode.FlowCond:
			stop := o.proveCond(ev, st, b, term, next, &proofs[i])
			if stop {
				return proofs
			}
		case bytecode.FlowSwitch:
			key := ev.pop(st)
			if d := o.f.DecidedSucc(b.ID); d != cfg.NoBlock && d == next {
				proofs[i] = true
			}
			if n, isC := key.isIntConst(); isC {
				if tgt, ok := b.SwitchSucc(term, n); ok && tgt == next {
					proofs[i] = true
				} else if ok && !proofs[i] {
					// The walk contradicts the recording: no execution
					// follows the trace past this position.
					return proofs
				}
			}
		case bytecode.FlowCall:
			proofs[i] = o.proveCall(b, term, next)
			st = nil
		default: // FlowReturn, FlowThrow, FlowHalt: dynamic successor
			st = nil
		}
	}
	return proofs
}

// proveCond handles one conditional position; stop reports that the walk
// proved the recorded direction impossible (the trace tail is dead).
func (o *GuardOracle) proveCond(ev evaluator, st *absState, b *cfg.Block, term *bytecode.Instr, next cfg.BlockID, proof *bool) (stop bool) {
	var a, b2 absVal
	if bytecode.CondArity(term.Op) == 2 {
		b2 = ev.pop(st)
		a = ev.pop(st)
	} else {
		a = ev.pop(st)
	}
	if d := o.f.DecidedSucc(b.ID); d != cfg.NoBlock && d == next {
		*proof = true
	}
	taken, decided := condOutcome(term.Op, a, b2)
	if decided {
		edge := b.FallThrough
		if taken {
			edge = b.Taken
		}
		if edge == next {
			*proof = true
			refineBranch(st, term.Op, a, b2, taken)
			return false
		}
		return !*proof
	}
	// Undecided: condition the state on the recorded direction. A
	// position is only reached along the trace when the branch went the
	// recorded way, so the refinement is sound for later positions.
	switch next {
	case b.Taken:
		refineBranch(st, term.Op, a, b2, true)
	case b.FallThrough:
		refineBranch(st, term.Op, a, b2, false)
	}
	return false
}

// proveCall proves call positions with a unique dynamic successor: a
// native call always returns to the fallthrough block, and static/special
// dispatch always enters the resolved callee (a trap aborts the run and
// fires no side exit).
func (o *GuardOracle) proveCall(b *cfg.Block, term *bytecode.Instr, next cfg.BlockID) bool {
	if o.p.Program == nil || term.A < 0 || int(term.A) >= len(o.p.Program.MethodRefs) {
		return false
	}
	ref := &o.p.Program.MethodRefs[term.A]
	callee := ref.Method
	if callee == nil {
		return false
	}
	if callee.Native != "" {
		return b.FallThrough == next
	}
	if ref.Kind == classfile.RefVirtual || callee.Abstract {
		return false
	}
	entry := o.p.MethodEntry(callee)
	return entry != nil && entry.ID == next
}

// seed builds the walk state at a block boundary from the block's entry
// facts: proven constants and non-null slots are known, everything else is
// unknown but refinable through provenance.
func (o *GuardOracle) seed(b *cfg.Block) *absState {
	st := &absState{locals: make([]lval, b.Method.MaxLocals)}
	bf := o.f.Block(b.ID)
	if bf == nil {
		return st
	}
	set := func(slot int32, v absVal) {
		if slot >= 0 && int(slot) < len(st.locals) {
			st.locals[slot] = lval{v: v, init: true}
		}
	}
	for _, c := range bf.IntConsts {
		set(c.Slot, intConst(c.Val))
	}
	for _, c := range bf.FloatConsts {
		set(c.Slot, floatConst(c.Bits))
	}
	for _, slot := range bf.NonNull {
		set(slot, nonNullRef())
	}
	return st
}
