package trace

import (
	"math"

	"repro/internal/bytecode"
	"repro/internal/cfg"
)

// SlotConst claims a local slot holds a known integer payload at a trace
// position's block entry (the policy layer translates valueflow facts into
// these so this package stays analysis-agnostic).
type SlotConst struct {
	Slot int32
	Val  int64
}

// SlotBits claims a local slot holds a known float bit pattern at a trace
// position's block entry.
type SlotBits struct {
	Slot int32
	Bits uint64
}

// CompileEnv is everything the trace compiler consumes: the resolved block
// sequence, a resolver for branch targets outside the sequence, the guard
// proofs stamped on the trace at registration, and per-position block-entry
// constants from whole-program value flow.
type CompileEnv struct {
	// Blocks is the trace's resolved block sequence. The pointers must be
	// the canonical ProgramCFG blocks (the same ones the engine's block
	// resolver returns), because the engine compares successor pointers to
	// detect side exits.
	Blocks []*cfg.Block
	// Resolve maps a BlockID to its canonical block (nil for unknown IDs);
	// usually ProgramCFG.Block. The compiler bails when a needed target
	// does not resolve.
	Resolve func(cfg.BlockID) *cfg.Block
	// GuardProofs mirrors Trace.GuardProofs: GuardProofs[i] proves the side
	// exit after Blocks[i] dead, letting the compiler lower the guard to a
	// static jump.
	GuardProofs []bool
	// EntryInts[i] / EntryFloats[i] are the constant locals proven at
	// Blocks[i]'s entry.
	EntryInts   [][]SlotConst
	EntryFloats [][]SlotBits
}

func (env *CompileEnv) proven(i int) bool {
	return i >= 0 && i < len(env.GuardProofs) && env.GuardProofs[i]
}

// Compile lowers a trace's block sequence into a fused Program, or returns
// nil when the sequence cannot be compiled (the trace then stays on its
// unfused program — bailing is always safe, fusing is the optimization).
//
// The lowering is a per-segment symbolic pass. Constant pushes and local
// loads are deferred into a symbolic top-of-stack region instead of being
// emitted; ops whose operands are fully covered by that region fuse into a
// single superinstruction (or fold away entirely when every operand is a
// compile-time constant), and anything else flushes the region and falls
// back to the interpreter's single-op executor. The region is always
// contiguous with the real stack top and always empty at segment
// boundaries, so a side exit anywhere leaves the frame in exactly the state
// the block-by-block path would have produced.
func Compile(env *CompileEnv) *Program {
	if env == nil || len(env.Blocks) == 0 {
		return nil
	}
	for _, b := range env.Blocks {
		if b == nil || len(b.Instrs) == 0 {
			return nil
		}
	}
	resolve := env.Resolve
	if resolve == nil {
		resolve = func(cfg.BlockID) *cfg.Block { return nil }
	}

	p := Lower(env.Blocks)
	p.Fused = true
	c := &segCompiler{prog: p, known: make(map[int32]int64)}
	for i, b := range env.Blocks {
		c.seg = &p.Segs[i]
		c.pend = c.pend[:0]
		c.lastBin = -1
		for _, sc := range entryInts(env.EntryInts, i) {
			c.known[sc.Slot] = sc.Val
		}
		for _, sb := range entryFloats(env.EntryFloats, i) {
			c.known[sb.Slot] = int64(sb.Bits)
		}

		n := len(b.Instrs)
		bodyEnd := n - 1
		if b.Kind == bytecode.FlowNext {
			// A block split by a following leader: the last instruction is
			// an ordinary one and the terminator is the implicit
			// fallthrough.
			bodyEnd = n
		}
		for j := 0; j < bodyEnd; j++ {
			c.instr(int32(j), b.Instrs[j])
		}
		if !c.terminator(env, resolve, i, b) {
			return nil
		}
	}
	return p
}

func entryInts(e [][]SlotConst, i int) []SlotConst {
	if i < len(e) {
		return e[i]
	}
	return nil
}

func entryFloats(e [][]SlotBits, i int) []SlotBits {
	if i < len(e) {
		return e[i]
	}
	return nil
}

// symVal is one deferred value in the symbolic top-of-stack region: either
// a constant payload (covering int, float-bits, and the null reference —
// the machine's Value is untyped) or a pending read of a local slot.
type symVal struct {
	isConst bool
	val     int64 // constant payload
	slot    int32 // local slot for deferred reads
}

type segCompiler struct {
	prog *Program
	seg  *Segment
	// pend is the symbolic region, deepest first; conceptually it sits on
	// top of the frame's real operand stack.
	pend []symVal
	// known maps local slots to constant payloads: seeded from block-entry
	// facts, updated by tracked stores, carried across same-frame segment
	// boundaries, and reset at frame changes (call/return/throw).
	known map[int32]int64
	// lastBin indexes a trailing SBin whose result is still the conceptual
	// stack top (Dst == -1, pend empty, nothing emitted since), so a
	// following store can retarget it into a fused binop+store; -1 when no
	// such op is pending.
	lastBin int
}

func (c *segCompiler) emit(op SOp) {
	c.seg.Ops = append(c.seg.Ops, op)
	if op.Kind == SBin && op.Dst < 0 {
		c.lastBin = len(c.seg.Ops) - 1
	} else {
		c.lastBin = -1
	}
}

func (c *segCompiler) push(v symVal) {
	c.pend = append(c.pend, v)
	c.lastBin = -1
}

func (c *segCompiler) materialize(v symVal) {
	if v.isConst {
		c.emit(SOp{Kind: SPushConst, Val: v.val})
	} else {
		c.emit(SOp{Kind: SPushLocal, A: v.slot})
	}
}

// flushAll materializes the whole symbolic region onto the real stack.
func (c *segCompiler) flushAll() {
	for _, v := range c.pend {
		c.materialize(v)
	}
	c.pend = c.pend[:0]
}

// flushAllBut materializes everything below the top keep entries, which
// stay symbolic (and become the new whole region).
func (c *segCompiler) flushAllBut(keep int) {
	cut := len(c.pend) - keep
	for _, v := range c.pend[:cut] {
		c.materialize(v)
	}
	c.pend = append(c.pend[:0], c.pend[cut:]...)
}

// flushLocalRefs materializes the region prefix up to (and including) the
// topmost deferred read of slot, so a following write to slot cannot be
// observed by reads deferred from before it.
func (c *segCompiler) flushLocalRefs(slot int32) {
	top := -1
	for i, v := range c.pend {
		if !v.isConst && v.slot == slot {
			top = i
		}
	}
	if top < 0 {
		return
	}
	c.flushAllBut(len(c.pend) - top - 1)
}

func (c *segCompiler) instr(idx int32, in bytecode.Instr) {
	switch in.Op {
	case bytecode.Nop:

	case bytecode.IConst:
		c.push(symVal{isConst: true, val: int64(in.A)})
	case bytecode.FConst:
		c.push(symVal{isConst: true, val: int64(math.Float64bits(in.F))})
	case bytecode.AConstNull:
		c.push(symVal{isConst: true, val: 0})

	case bytecode.ILoad, bytecode.FLoad, bytecode.ALoad:
		if v, ok := c.known[in.A]; ok {
			c.push(symVal{isConst: true, val: v})
			c.prog.Forwarded++
		} else {
			c.push(symVal{slot: in.A})
		}

	case bytecode.IStore, bytecode.FStore, bytecode.AStore:
		c.store(in.A)

	case bytecode.IInc:
		c.flushLocalRefs(in.A)
		c.emit(SOp{Kind: SIncLocal, A: in.A, Val: int64(in.B)})
		if v, ok := c.known[in.A]; ok {
			c.known[in.A] = v + int64(in.B)
		}

	case bytecode.Pop:
		if n := len(c.pend); n > 0 {
			c.pend = c.pend[:n-1]
		} else {
			c.emit(SOp{Kind: SExec, A: idx, PC: in.PC})
		}
	case bytecode.Dup:
		if n := len(c.pend); n > 0 {
			c.push(c.pend[n-1])
		} else {
			c.emit(SOp{Kind: SExec, A: idx, PC: in.PC})
		}
	case bytecode.DupX1:
		if n := len(c.pend); n >= 2 {
			a, b := c.pend[n-2], c.pend[n-1]
			c.pend[n-2], c.pend[n-1] = b, a
			c.push(b)
		} else {
			c.flushAll()
			c.emit(SOp{Kind: SExec, A: idx, PC: in.PC})
		}
	case bytecode.Swap:
		if n := len(c.pend); n >= 2 {
			c.pend[n-2], c.pend[n-1] = c.pend[n-1], c.pend[n-2]
			c.lastBin = -1
		} else {
			c.flushAll()
			c.emit(SOp{Kind: SExec, A: idx, PC: in.PC})
		}

	case bytecode.INeg, bytecode.FNeg, bytecode.I2F, bytecode.F2I:
		n := len(c.pend)
		if n == 0 {
			c.emit(SOp{Kind: SExec, A: idx, PC: in.PC})
			return
		}
		if v := c.pend[n-1]; v.isConst {
			c.pend[n-1] = symVal{isConst: true, val: bytecode.FoldUnary(in.Op, v.val)}
			c.lastBin = -1
			c.prog.Folded++
			return
		}
		c.flushAllBut(1)
		v := c.pend[0]
		c.pend = c.pend[:0]
		c.emit(SOp{Kind: SBin, Op: in.Op, Mode: SrcL, A: v.slot, Dst: -1, PC: in.PC})

	case bytecode.IAdd, bytecode.ISub, bytecode.IMul, bytecode.IDiv, bytecode.IRem,
		bytecode.IShl, bytecode.IShr, bytecode.IUshr,
		bytecode.IAnd, bytecode.IOr, bytecode.IXor,
		bytecode.FAdd, bytecode.FSub, bytecode.FMul, bytecode.FDiv, bytecode.FRem,
		bytecode.FCmpL, bytecode.FCmpG:
		n := len(c.pend)
		if n < 2 {
			c.flushAll()
			c.emit(SOp{Kind: SExec, A: idx, PC: in.PC})
			return
		}
		a, b := c.pend[n-2], c.pend[n-1]
		if a.isConst && b.isConst {
			if r, ok := bytecode.FoldBinary(in.Op, a.val, b.val); ok {
				c.pend = c.pend[:n-1]
				c.pend[n-2] = symVal{isConst: true, val: r}
				c.lastBin = -1
				c.prog.Folded++
				return
			}
			// Division by a constant zero: keep the op live so the runtime
			// trap fires with the interpreter's exact message and PC.
			c.flushAll()
			c.emit(SOp{Kind: SExec, A: idx, PC: in.PC})
			return
		}
		c.flushAllBut(2)
		a, b = c.pend[0], c.pend[1]
		c.pend = c.pend[:0]
		op := SOp{Kind: SBin, Op: in.Op, Dst: -1, PC: in.PC}
		switch {
		case !a.isConst && !b.isConst:
			op.Mode, op.A, op.B = SrcLL, a.slot, b.slot
		case !a.isConst:
			op.Mode, op.A, op.Val = SrcLC, a.slot, b.val
		default:
			op.Mode, op.B, op.Val = SrcCL, b.slot, a.val
		}
		c.emit(op)

	default:
		// Allocating ops, field and array access, checks: the region must
		// be real before the interpreter op runs.
		c.flushAll()
		c.emit(SOp{Kind: SExec, A: idx, PC: in.PC})
	}
}

// store lowers istore/fstore/astore of slot.
func (c *segCompiler) store(slot int32) {
	if n := len(c.pend); n > 0 {
		v := c.pend[n-1]
		c.pend = c.pend[:n-1]
		c.flushLocalRefs(slot)
		if v.isConst {
			c.emit(SOp{Kind: SStoreConst, A: slot, Val: v.val})
			c.known[slot] = v.val
		} else {
			c.emit(SOp{Kind: SMove, A: slot, B: v.slot})
			if kv, ok := c.known[v.slot]; ok {
				c.known[slot] = kv
			} else {
				delete(c.known, slot)
			}
		}
		return
	}
	if c.lastBin >= 0 {
		// binop+store fusion: the preceding SBin's result is the conceptual
		// stack top; store it directly instead of push-then-pop.
		c.seg.Ops[c.lastBin].Dst = slot
		c.lastBin = -1
		delete(c.known, slot)
		return
	}
	c.emit(SOp{Kind: SStoreLocal, A: slot})
	delete(c.known, slot)
}

// terminator lowers the segment's control transfer. It reports false when
// the compilation must bail.
func (c *segCompiler) terminator(env *CompileEnv, resolve func(cfg.BlockID) *cfg.Block, i int, b *cfg.Block) bool {
	term := b.Terminator()
	switch b.Kind {
	case bytecode.FlowNext:
		c.flushAll()
		succ := resolve(b.FallThrough)
		if succ == nil {
			return false
		}
		c.seg.Term = Term{Kind: TStatic, Static: succ}
		return true

	case bytecode.FlowGoto:
		c.flushAll()
		succ := resolve(b.Taken)
		if succ == nil {
			return false
		}
		c.seg.Term = Term{Kind: TStatic, Static: succ}
		return true

	case bytecode.FlowCond:
		arity := bytecode.CondArity(term.Op)
		if env.proven(i) && i+1 < len(env.Blocks) {
			// The guard is proven dead: the branch must go to the recorded
			// successor, so only discard the condition operands.
			consumed := arity
			if consumed > len(c.pend) {
				consumed = len(c.pend)
			}
			c.pend = c.pend[:len(c.pend)-consumed]
			c.lastBin = -1
			c.flushAll()
			c.prog.DroppedGuards++
			t := Term{Kind: TPopStatic, PopN: int32(arity - consumed), Static: env.Blocks[i+1]}
			if t.PopN == 0 {
				t.Kind = TStatic
			}
			c.seg.Term = t
			return true
		}
		return c.condTerm(resolve, b, term)

	case bytecode.FlowSwitch:
		if n := len(c.pend); n > 0 && c.pend[n-1].isConst {
			key := c.pend[n-1].val
			c.pend = c.pend[:n-1]
			c.lastBin = -1
			c.flushAll()
			id, ok := b.SwitchSucc(term, key)
			if !ok {
				return false
			}
			return c.decided(resolve, id)
		}
		c.flushAll()
		if env.proven(i) && i+1 < len(env.Blocks) {
			c.prog.DroppedGuards++
			c.seg.Term = Term{Kind: TPopStatic, PopN: 1, Static: env.Blocks[i+1]}
			return true
		}
		c.seg.Term = Term{Kind: TGeneric}
		return true

	case bytecode.FlowCall, bytecode.FlowReturn, bytecode.FlowThrow:
		c.flushAll()
		c.seg.Term = Term{Kind: TGeneric}
		// The next segment runs in a different frame (callee, caller, or
		// handler): its locals are unrelated to this one's.
		clear(c.known)
		return true

	case bytecode.FlowHalt:
		c.flushAll()
		c.seg.Term = Term{Kind: TGeneric}
		return true
	}
	return false
}

// condTerm lowers an unproven conditional: fold it when every operand is a
// compile-time constant, specialize it when the operands are covered
// int-typed symbolic values, and delegate otherwise.
func (c *segCompiler) condTerm(resolve func(cfg.BlockID) *cfg.Block, b *cfg.Block, term *bytecode.Instr) bool {
	switch term.Op {
	case bytecode.IfEq, bytecode.IfNe, bytecode.IfLt, bytecode.IfGe, bytecode.IfGt, bytecode.IfLe:
		if n := len(c.pend); n >= 1 {
			v := c.pend[n-1]
			c.pend = c.pend[:n-1]
			c.lastBin = -1
			c.flushAll()
			if v.isConst {
				return c.decided(resolve, condSucc(b, bytecode.Cond1(term.Op, v.val)))
			}
			taken, fall := resolve(b.Taken), resolve(b.FallThrough)
			if taken == nil || fall == nil {
				return false
			}
			c.seg.Term = Term{Kind: TCondI, Op: term.Op, A: v.slot, Taken: taken, Fall: fall}
			return true
		}

	case bytecode.IfICmpEq, bytecode.IfICmpNe, bytecode.IfICmpLt,
		bytecode.IfICmpGe, bytecode.IfICmpGt, bytecode.IfICmpLe:
		if n := len(c.pend); n >= 2 {
			a, bv := c.pend[n-2], c.pend[n-1]
			if a.isConst && bv.isConst {
				c.pend = c.pend[:n-2]
				c.lastBin = -1
				c.flushAll()
				return c.decided(resolve, condSucc(b, bytecode.Cond2(term.Op, a.val, bv.val)))
			}
			c.flushAllBut(2)
			a, bv = c.pend[0], c.pend[1]
			c.pend = c.pend[:0]
			taken, fall := resolve(b.Taken), resolve(b.FallThrough)
			if taken == nil || fall == nil {
				return false
			}
			t := Term{Kind: TCondII, Op: term.Op, Taken: taken, Fall: fall}
			switch {
			case !a.isConst && !bv.isConst:
				t.Mode, t.A, t.B = SrcLL, a.slot, bv.slot
			case !a.isConst:
				t.Mode, t.A, t.Val = SrcLC, a.slot, bv.val
			default:
				t.Mode, t.B, t.Val = SrcCL, bv.slot, a.val
			}
			c.seg.Term = t
			return true
		}
	}
	// Reference conditionals or uncovered operands: the interpreter's
	// terminator executor pops from the real stack.
	c.flushAll()
	c.seg.Term = Term{Kind: TGeneric}
	return true
}

// decided lowers a conditional or switch whose outcome the symbolic region
// fixed at compile time to a static jump to id.
func (c *segCompiler) decided(resolve func(cfg.BlockID) *cfg.Block, id cfg.BlockID) bool {
	succ := resolve(id)
	if succ == nil {
		return false
	}
	c.prog.Decided++
	c.seg.Term = Term{Kind: TStatic, Static: succ}
	return true
}

func condSucc(b *cfg.Block, taken bool) cfg.BlockID {
	if taken {
		return b.Taken
	}
	return b.FallThrough
}
