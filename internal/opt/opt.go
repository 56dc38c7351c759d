// Package opt implements a static bytecode-to-bytecode optimizer: classic
// method-local peephole passes plus unreachable-code elimination, iterated
// to a fixpoint. It exists as the static counterpart to the dynamic
// trace-level optimizer (internal/trace's Compile, whose removal counters
// tracebench -optimizability reports): the paper's premise is that traces
// expose opportunities static optimization cannot see, and comparing the
// two quantifies that.
//
// Passes (all target-safe: the rewriter works on an index-based IR where
// branch targets are instruction indexes, and re-encodes with remapped
// targets and exception tables afterwards):
//
//   - constant folding: [iconst a; iconst b; op] → [iconst (a op b)], same
//     for float constants and unary negation/conversions,
//   - algebraic identities: x+0, x-0, x*1, x/1, x<<0, x|0, x^0 dropped;
//     x*0 rewritten to [pop; iconst 0],
//   - branch folding: a conditional over constants becomes a goto or falls
//     through; goto-to-goto chains are shortened; goto-to-next removed,
//   - dead code elimination: instructions unreachable from the entry and
//     every exception handler are deleted.
package opt

import (
	"fmt"
	"math"

	"repro/internal/bytecode"
	"repro/internal/classfile"
)

// Stats reports what the optimizer did.
type Stats struct {
	MethodsChanged int
	InstrsBefore   int
	InstrsAfter    int
	Folded         int // constant/algebraic rewrites
	BranchesFolded int // conditionals resolved or gotos shortened
	DeadRemoved    int // unreachable instructions deleted
}

// Saved returns the net instruction reduction.
func (s Stats) Saved() int { return s.InstrsBefore - s.InstrsAfter }

func (s Stats) String() string {
	return fmt.Sprintf("optimized %d methods: %d -> %d instrs (%d folded, %d branches, %d dead)",
		s.MethodsChanged, s.InstrsBefore, s.InstrsAfter, s.Folded, s.BranchesFolded, s.DeadRemoved)
}

// Program optimizes every bytecode method of a linked program in place and
// re-verifies each changed method.
func Program(p *classfile.Program) (Stats, error) {
	var total Stats
	for _, m := range p.Methods {
		if len(m.Code) == 0 {
			continue
		}
		st, changed, err := Method(p, m)
		if err != nil {
			return total, fmt.Errorf("opt: method %s: %w", m.QName(), err)
		}
		total.InstrsBefore += st.InstrsBefore
		total.InstrsAfter += st.InstrsAfter
		total.Folded += st.Folded
		total.BranchesFolded += st.BranchesFolded
		total.DeadRemoved += st.DeadRemoved
		if changed {
			total.MethodsChanged++
		}
	}
	return total, nil
}

// Method optimizes one method in place. It reports whether the code
// changed; on change the method has been re-verified.
func Method(p *classfile.Program, m *classfile.Method) (Stats, bool, error) {
	ir, err := decodeIR(m)
	if err != nil {
		return Stats{}, false, err
	}
	st := Stats{InstrsBefore: len(ir.ins)}

	changed := false
	for pass := 0; pass < 10; pass++ {
		any := false
		any = ir.foldConstants(&st) || any
		any = ir.foldBranches(&st) || any
		any = ir.removeDead(&st) || any
		if !any {
			break
		}
		changed = true
	}
	st.InstrsAfter = len(ir.ins)
	if !changed {
		return st, false, nil
	}

	code, handlers, err := ir.encode()
	if err != nil {
		return Stats{}, false, err
	}
	oldCode, oldHandlers := m.Code, m.Handlers
	m.Code, m.Handlers = code, handlers
	if err := p.Reverify(m); err != nil {
		// Never ship a rewrite the verifier rejects.
		m.Code, m.Handlers = oldCode, oldHandlers
		return Stats{}, false, fmt.Errorf("rewrite failed verification: %w", err)
	}
	return st, true, nil
}

// irInstr is one instruction in index-target form: branch targets (A for
// branches, Dflt/Targets for switches) hold instruction indexes, not pcs.
type irInstr struct {
	in     bytecode.Instr
	target int   // branch target index (KindBranch)
	dflt   int   // switch default index
	tgts   []int // switch target indexes
}

type ir struct {
	method   *classfile.Method
	ins      []irInstr
	handlers []irHandler
}

type irHandler struct {
	start, end, handler int // instruction indexes; end is exclusive
	classIdx            int32
}

func decodeIR(m *classfile.Method) (*ir, error) {
	decoded, err := bytecode.Decode(m.Code)
	if err != nil {
		return nil, err
	}
	byPC := make(map[uint32]int, len(decoded))
	for i, in := range decoded {
		byPC[in.PC] = i
	}
	out := &ir{method: m}
	for _, in := range decoded {
		ii := irInstr{in: in, target: -1, dflt: -1}
		switch bytecode.InfoOf(in.Op).Operand {
		case bytecode.KindBranch:
			ii.target = byPC[uint32(in.A)]
		case bytecode.KindTableSwitch, bytecode.KindLookupSwitch:
			ii.dflt = byPC[in.Dflt]
			ii.tgts = make([]int, len(in.Targets))
			for k, t := range in.Targets {
				ii.tgts[k] = byPC[t]
			}
		}
		out.ins = append(out.ins, ii)
	}
	for _, h := range m.Handlers {
		endIdx := len(decoded)
		if idx, ok := byPC[h.EndPC]; ok {
			endIdx = idx
		}
		out.handlers = append(out.handlers, irHandler{
			start:    byPC[h.StartPC],
			end:      endIdx,
			handler:  byPC[h.HandlerPC],
			classIdx: h.ClassIdx,
		})
	}
	return out, nil
}

// isLeader reports indexes that control flow can enter other than by
// falling through — branch/switch targets and handler entries. Peepholes
// only rewrite windows whose interior instructions are not leaders.
func (r *ir) leaders() []bool {
	lead := make([]bool, len(r.ins)+1)
	for _, ii := range r.ins {
		if ii.target >= 0 {
			lead[ii.target] = true
		}
		if ii.dflt >= 0 {
			lead[ii.dflt] = true
		}
		for _, t := range ii.tgts {
			lead[t] = true
		}
	}
	for _, h := range r.handlers {
		lead[h.handler] = true
	}
	return lead
}

// remove deletes instruction indexes in doomed (a set), remapping every
// branch target, switch target, and handler boundary.
func (r *ir) remove(doomed map[int]bool) {
	if len(doomed) == 0 {
		return
	}
	// newIdx[i] = index of instruction i after deletion; for deleted
	// instructions, the index of the next surviving one.
	newIdx := make([]int, len(r.ins)+1)
	n := 0
	for i := range r.ins {
		newIdx[i] = n
		if !doomed[i] {
			n++
		}
	}
	newIdx[len(r.ins)] = n

	var kept []irInstr
	for i, ii := range r.ins {
		if doomed[i] {
			continue
		}
		if ii.target >= 0 {
			ii.target = newIdx[ii.target]
		}
		if ii.dflt >= 0 {
			ii.dflt = newIdx[ii.dflt]
		}
		for k, t := range ii.tgts {
			ii.tgts[k] = newIdx[t]
		}
		kept = append(kept, ii)
	}
	r.ins = kept

	var hs []irHandler
	for _, h := range r.handlers {
		h.start = newIdx[h.start]
		h.end = newIdx[h.end]
		h.handler = newIdx[h.handler]
		if h.start < h.end && h.handler < len(r.ins) {
			hs = append(hs, h)
		}
	}
	r.handlers = hs
}

// constOf returns the payload (floats as bit patterns, the form
// bytecode.FoldBinary takes) and kind of the constant an instruction pushes;
// the kind is KAny when it pushes none.
func constOf(in bytecode.Instr) (int64, bytecode.ValKind) {
	switch in.Op {
	case bytecode.IConst:
		return int64(in.A), bytecode.KInt
	case bytecode.FConst:
		return int64(math.Float64bits(in.F)), bytecode.KFloat
	}
	return 0, bytecode.KAny
}

// constInstr materializes a folded payload of kind k; ok is false for an
// int no iconst immediate can hold.
func constInstr(v int64, k bytecode.ValKind) (bytecode.Instr, bool) {
	if k == bytecode.KFloat {
		return bytecode.Instr{Op: bytecode.FConst, F: math.Float64frombits(uint64(v))}, true
	}
	return bytecode.Instr{Op: bytecode.IConst, A: int32(v)}, v >= math.MinInt32 && v <= math.MaxInt32
}

// foldConstants applies constant and algebraic peepholes once.
func (r *ir) foldConstants(st *Stats) bool {
	lead := r.leaders()
	changed := false
	doomed := map[int]bool{}
	clean := func(idxs ...int) bool {
		for _, x := range idxs {
			if doomed[x] {
				return false
			}
		}
		return true
	}

	// Pair windows [a; op]: unary constant folding and, when a is the
	// right-operand constant of an identity, algebraic elimination (the
	// left operand is whatever sits on the stack, so it need not be
	// adjacent).
	for i := 0; i+1 < len(r.ins); i++ {
		j := i + 1
		if lead[j] || !clean(i, j) {
			continue
		}
		op := r.ins[j].in.Op
		av, ak := constOf(r.ins[i].in)
		if ak == bytecode.KAny {
			continue
		}
		switch op {
		case bytecode.INeg, bytecode.FNeg, bytecode.I2F, bytecode.F2I:
			pops, pushes, _ := bytecode.StackKinds(op)
			if pops[0] != ak {
				continue
			}
			if c, ok := constInstr(bytecode.FoldUnary(op, av), pushes[0]); ok {
				r.ins[i].in = c
				doomed[j] = true
				st.Folded++
				changed = true
			}
		default:
			if ak == bytecode.KInt && isIdentity(op, av) {
				doomed[i], doomed[j] = true, true
				st.Folded++
				changed = true
			}
		}
	}

	// Triple windows [const; const; binop].
	for i := 0; i+2 < len(r.ins); i++ {
		j, k := i+1, i+2
		if lead[j] || lead[k] || !clean(i, j, k) {
			continue
		}
		av, ak := constOf(r.ins[i].in)
		bv, bk := constOf(r.ins[j].in)
		op := r.ins[k].in.Op
		pops, pushes, _ := bytecode.StackKinds(op)
		if ak == bytecode.KAny || len(pops) != 2 || pops[1] != ak || pops[0] != bk {
			continue
		}
		if v, ok := bytecode.FoldBinary(op, av, bv); ok {
			if c, ok := constInstr(v, pushes[0]); ok {
				r.ins[i].in = c
				doomed[j], doomed[k] = true, true
				st.Folded++
				changed = true
			}
		}
	}
	r.remove(doomed)
	return changed
}

// isIdentity reports "x op const == x".
func isIdentity(op bytecode.Op, c int64) bool {
	switch op {
	case bytecode.IAdd, bytecode.ISub, bytecode.IOr, bytecode.IXor,
		bytecode.IShl, bytecode.IShr, bytecode.IUshr:
		return c == 0
	case bytecode.IMul, bytecode.IDiv:
		return c == 1
	}
	return false
}

// foldBranches resolves constant conditionals and shortens goto chains.
func (r *ir) foldBranches(st *Stats) bool {
	changed := false
	doomed := map[int]bool{}
	lead := r.leaders()

	for i := range r.ins {
		ii := &r.ins[i]
		op := ii.in.Op

		// goto-to-goto chaining, with a hop bound for safety.
		if op == bytecode.Goto || bytecode.InfoOf(op).Flow == bytecode.FlowCond {
			t := ii.target
			hops := 0
			for t >= 0 && t < len(r.ins) && r.ins[t].in.Op == bytecode.Goto && hops < 8 {
				nt := r.ins[t].target
				if nt == t {
					break // self-loop
				}
				t = nt
				hops++
			}
			if t != ii.target {
				ii.target = t
				st.BranchesFolded++
				changed = true
			}
		}

		// goto to the textually next instruction is a no-op (only if the
		// goto is not itself the final instruction).
		if op == bytecode.Goto && ii.target == i+1 && i+1 < len(r.ins) {
			doomed[i] = true
			st.BranchesFolded++
			changed = true
			continue
		}

		// Constant single-operand conditionals: [iconst c; ifXX] resolves
		// statically when the iconst feeds the branch (no interior leader).
		if i > 0 && !lead[i] && !doomed[i-1] {
			cn, ck := constOf(r.ins[i-1].in)
			if ck == bytecode.KInt && isSingleIntCond(op) {
				taken := bytecode.Cond1(op, cn)
				doomed[i-1] = true
				if taken {
					ii.in = bytecode.Instr{Op: bytecode.Goto}
					// target unchanged
				} else {
					doomed[i] = true
				}
				st.BranchesFolded++
				changed = true
			}
		}
	}
	r.remove(doomed)
	return changed
}

func isSingleIntCond(op bytecode.Op) bool {
	switch op {
	case bytecode.IfEq, bytecode.IfNe, bytecode.IfLt, bytecode.IfGe,
		bytecode.IfGt, bytecode.IfLe:
		return true
	}
	return false
}

// removeDead deletes instructions unreachable from the entry and from every
// exception handler.
func (r *ir) removeDead(st *Stats) bool {
	reach := make([]bool, len(r.ins))
	var work []int
	push := func(i int) {
		if i >= 0 && i < len(r.ins) && !reach[i] {
			reach[i] = true
			work = append(work, i)
		}
	}
	push(0)
	for _, h := range r.handlers {
		push(h.handler)
	}
	for len(work) > 0 {
		i := work[len(work)-1]
		work = work[:len(work)-1]
		ii := r.ins[i]
		switch bytecode.InfoOf(ii.in.Op).Flow {
		case bytecode.FlowNext, bytecode.FlowCall:
			push(i + 1)
		case bytecode.FlowGoto:
			push(ii.target)
		case bytecode.FlowCond:
			push(ii.target)
			push(i + 1)
		case bytecode.FlowSwitch:
			push(ii.dflt)
			for _, t := range ii.tgts {
				push(t)
			}
		case bytecode.FlowReturn, bytecode.FlowHalt, bytecode.FlowThrow:
		}
	}
	doomed := map[int]bool{}
	for i := range r.ins {
		if !reach[i] {
			doomed[i] = true
		}
	}
	// The structural validator requires the method to end in a terminator;
	// keep a trailing epilogue alive if deleting dead code would expose a
	// fallthrough end. (Deleting only unreachable code cannot do that: the
	// last reachable instruction is always terminal or followed by
	// reachable code. So full removal is safe.)
	if len(doomed) == 0 {
		return false
	}
	st.DeadRemoved += len(doomed)
	r.remove(doomed)
	return true
}

// encode re-serializes the IR, resolving instruction indexes back to pcs.
func (r *ir) encode() ([]byte, []classfile.Handler, error) {
	// First compute pcs.
	pcs := make([]uint32, len(r.ins)+1)
	pc := uint32(0)
	for i, ii := range r.ins {
		pcs[i] = pc
		pc += ii.in.Size()
	}
	pcs[len(r.ins)] = pc

	enc := bytecode.NewEncoder()
	for i, ii := range r.ins {
		in := ii.in
		in.PC = pcs[i]
		switch bytecode.InfoOf(in.Op).Operand {
		case bytecode.KindBranch:
			in.A = int32(pcs[ii.target])
		case bytecode.KindTableSwitch, bytecode.KindLookupSwitch:
			in.Dflt = pcs[ii.dflt]
			in.Targets = make([]uint32, len(ii.tgts))
			for k, t := range ii.tgts {
				in.Targets[k] = pcs[t]
			}
		}
		if _, err := enc.Emit(in); err != nil {
			return nil, nil, err
		}
	}
	var handlers []classfile.Handler
	for _, h := range r.handlers {
		handlers = append(handlers, classfile.Handler{
			StartPC:   pcs[h.start],
			EndPC:     pcs[h.end],
			HandlerPC: pcs[h.handler],
			ClassIdx:  h.classIdx,
		})
	}
	return enc.Bytes(), handlers, nil
}
