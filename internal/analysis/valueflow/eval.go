package valueflow

import (
	"math"

	"repro/internal/bytecode"
	"repro/internal/classfile"
)

// evaluator transfers an absState across the straight-line (non-control)
// instructions, mirroring the VM's exec semantics exactly where it folds:
// integer ops wrap like the VM, IDiv/IRem replicate the MinInt64/-1 rules,
// shifts mask the count with &63, and float folds run the same float64
// operation the VM runs.
//
// Two modes share the code. Strict mode (the whole-program analysis) treats
// structural damage — stack underflow, bad slot or ref indices — as a bail:
// the caller discards every fact. Lenient mode (the guard oracle's seeded
// trace walk) starts from a partially known state, so an underflow pops an
// unknown value and loads of unknown slots keep provenance for refinement.
type evaluator struct {
	prog    *classfile.Program
	lenient bool
	bail    bool
}

func (e *evaluator) fail() { e.bail = true }

func (e *evaluator) push(st *absState, v absVal) {
	if len(st.stack) >= maxAbsStack {
		e.fail()
		return
	}
	st.stack = append(st.stack, v)
}

func (e *evaluator) pop(st *absState) absVal {
	if len(st.stack) == 0 {
		if !e.lenient {
			e.fail()
		}
		return topAny()
	}
	v := st.stack[len(st.stack)-1]
	st.stack = st.stack[:len(st.stack)-1]
	return v
}

// setLocal stores v into a slot and severs the provenance of every stack
// value that was loaded from it (their copies are unaffected, but they no
// longer mirror the slot).
func (e *evaluator) setLocal(st *absState, slot int32, v absVal) {
	if slot < 0 || int(slot) >= len(st.locals) {
		e.fail()
		return
	}
	v.src = noSrc
	st.locals[slot] = lval{v: v, init: true}
	for i := range st.stack {
		if st.stack[i].src == slot {
			st.stack[i].src = noSrc
		}
	}
}

// load pushes a slot's value with provenance. Slots not proven written on
// every path load as the unconstrained value of the opcode's kind; lenient
// mode keeps provenance on them so a later branch can still refine the slot.
func (e *evaluator) load(st *absState, slot int32, top absVal) {
	if slot < 0 || int(slot) >= len(st.locals) {
		e.fail()
		return
	}
	l := st.locals[slot]
	v := top
	if l.init {
		v = l.v
		v.src = slot
	} else if e.lenient {
		v.src = slot
	}
	e.push(st, v)
}

// provenNonNull records that an instruction dereferenced a reference and
// did not trap: any execution continuing past it had a non-null value, so
// the source local (if provenance is intact) is non-null from here on.
func (e *evaluator) provenNonNull(st *absState, v absVal) {
	if v.kind == bytecode.KRef && v.src >= 0 {
		refineLocal(st, v.src, nonNullRef())
	}
}

func typeVal(t classfile.Type) absVal {
	switch t {
	case classfile.TInt:
		return topInt()
	case classfile.TFloat:
		return topFloat()
	case classfile.TRef:
		return topRef()
	}
	return topAny()
}

// exec transfers st across one non-control-flow instruction. Terminators
// (branches, switches, invokes, returns, throw, halt) are the caller's
// responsibility.
func (e *evaluator) exec(st *absState, in bytecode.Instr) {
	switch in.Op {
	case bytecode.Nop:

	case bytecode.IConst:
		e.push(st, intConst(int64(in.A)))
	case bytecode.FConst:
		e.push(st, floatConst(math.Float64bits(in.F)))
	case bytecode.SConst:
		e.push(st, nonNullRef())
	case bytecode.AConstNull:
		e.push(st, nullRef())

	case bytecode.ILoad:
		e.load(st, in.A, topInt())
	case bytecode.FLoad:
		e.load(st, in.A, topFloat())
	case bytecode.ALoad:
		e.load(st, in.A, topRef())
	case bytecode.IStore, bytecode.FStore, bytecode.AStore:
		e.setLocal(st, in.A, e.pop(st))

	case bytecode.IInc:
		if in.A < 0 || int(in.A) >= len(st.locals) {
			e.fail()
			return
		}
		l := st.locals[in.A]
		nv := topInt()
		if l.init && l.v.kind == bytecode.KInt {
			if lo, hi, ok := shiftRange(l.v.lo, l.v.hi, int64(in.B)); ok {
				nv = intRange(lo, hi)
			}
		}
		e.setLocal(st, in.A, nv)

	case bytecode.Pop:
		e.pop(st)
	case bytecode.Dup:
		v := e.pop(st)
		e.push(st, v)
		e.push(st, v)
	case bytecode.DupX1:
		a := e.pop(st)
		b := e.pop(st)
		e.push(st, a)
		e.push(st, b)
		e.push(st, a)
	case bytecode.Swap:
		a := e.pop(st)
		b := e.pop(st)
		e.push(st, a)
		e.push(st, b)

	case bytecode.IAdd, bytecode.ISub, bytecode.IMul, bytecode.IDiv,
		bytecode.IRem, bytecode.IShl, bytecode.IShr, bytecode.IUshr,
		bytecode.IAnd, bytecode.IOr, bytecode.IXor:
		b := e.pop(st)
		a := e.pop(st)
		e.push(st, intBinop(in.Op, a, b))
	case bytecode.INeg:
		a := e.pop(st)
		out := topInt()
		if a.kind == bytecode.KInt {
			if n, ok := a.isIntConst(); ok {
				out = intConst(bytecode.FoldUnary(in.Op, n)) // wraps at MinInt64 like the VM
			} else if a.lo > math.MinInt64 {
				out = intRange(-a.hi, -a.lo)
			}
		}
		e.push(st, out)

	case bytecode.FAdd, bytecode.FSub, bytecode.FMul, bytecode.FDiv, bytecode.FRem,
		bytecode.FCmpL, bytecode.FCmpG:
		b := e.pop(st)
		a := e.pop(st)
		e.push(st, floatBinop(in.Op, a, b))
	case bytecode.FNeg:
		a := e.pop(st)
		out := topFloat()
		if bits, ok := a.isFloatConst(); ok {
			out = floatConst(uint64(bytecode.FoldUnary(in.Op, int64(bits))))
		}
		e.push(st, out)

	case bytecode.I2F:
		a := e.pop(st)
		out := topFloat()
		if n, ok := a.isIntConst(); ok {
			out = floatConst(uint64(bytecode.FoldUnary(in.Op, n)))
		}
		e.push(st, out)
	case bytecode.F2I:
		a := e.pop(st)
		out := topInt()
		if bits, ok := a.isFloatConst(); ok {
			out = intConst(bytecode.FoldUnary(in.Op, int64(bits)))
		}
		e.push(st, out)

	case bytecode.New:
		e.push(st, nonNullRef())
	case bytecode.NewArray:
		e.pop(st) // length
		e.push(st, nonNullRef())
	case bytecode.ArrayLength:
		a := e.pop(st)
		e.provenNonNull(st, a)
		e.push(st, intRange(0, math.MaxInt64))

	case bytecode.GetField:
		obj := e.pop(st)
		e.provenNonNull(st, obj)
		e.push(st, e.fieldVal(in.A))
	case bytecode.PutField:
		e.pop(st) // value
		obj := e.pop(st)
		e.provenNonNull(st, obj)
	case bytecode.GetStatic:
		e.push(st, e.fieldVal(in.A))
	case bytecode.PutStatic:
		e.pop(st)

	case bytecode.InstanceOf:
		a := e.pop(st)
		if a.kind == bytecode.KRef && a.nl == nlNull {
			e.push(st, intConst(0))
		} else {
			e.push(st, intRange(0, 1))
		}
	case bytecode.CheckCast:
		// Value and provenance unchanged; a failed cast traps (aborts),
		// it never produces a different value.

	case bytecode.IALoad, bytecode.FALoad, bytecode.AALoad, bytecode.BALoad:
		e.pop(st) // index
		arr := e.pop(st)
		e.provenNonNull(st, arr)
		switch in.Op {
		case bytecode.IALoad:
			e.push(st, topInt())
		case bytecode.FALoad:
			e.push(st, topFloat())
		case bytecode.AALoad:
			e.push(st, topRef())
		case bytecode.BALoad:
			e.push(st, intRange(0, 255)) // byte elements are unsigned
		}
	case bytecode.IAStore, bytecode.FAStore, bytecode.AAStore, bytecode.BAStore:
		e.pop(st) // value
		e.pop(st) // index
		arr := e.pop(st)
		e.provenNonNull(st, arr)

	default:
		e.fail()
	}
}

func (e *evaluator) fieldVal(refIdx int32) absVal {
	if e.prog == nil || refIdx < 0 || int(refIdx) >= len(e.prog.FieldRefs) {
		e.fail()
		return topAny()
	}
	f := e.prog.FieldRefs[refIdx].Field
	if f == nil {
		e.fail()
		return topAny()
	}
	return typeVal(f.Type)
}

// shiftRange translates an interval by delta, reporting !ok on overflow
// (the VM wraps, so a wrapped bound invalidates the whole interval).
func shiftRange(lo, hi, delta int64) (int64, int64, bool) {
	nlo, nhi := lo+delta, hi+delta
	if delta >= 0 {
		if nlo < lo || nhi < hi {
			return 0, 0, false
		}
	} else {
		if nlo > lo || nhi > hi {
			return 0, 0, false
		}
	}
	return nlo, nhi, true
}

// intBinop folds or bounds one integer binary operation. Constant folds
// replicate VM semantics bit-for-bit (wrapping arithmetic, the IDiv/IRem
// MinInt64/-1 rules, &63 shift masking); interval results are produced only
// where overflow cannot invalidate them.
func intBinop(op bytecode.Op, a, b absVal) absVal {
	if a.kind != bytecode.KInt || b.kind != bytecode.KInt {
		return topInt()
	}
	an, aok := a.isIntConst()
	bn, bok := b.isIntConst()
	if aok && bok {
		if v, ok := bytecode.FoldBinary(op, an, bn); ok {
			return intConst(v)
		}
		return topInt() // ÷0 always traps; no value to claim
	}
	switch op {
	case bytecode.IAdd:
		if lo, ok1 := addNoOv(a.lo, b.lo); ok1 {
			if hi, ok2 := addNoOv(a.hi, b.hi); ok2 {
				return intRange(lo, hi)
			}
		}
	case bytecode.ISub:
		if lo, ok1 := subNoOv(a.lo, b.hi); ok1 {
			if hi, ok2 := subNoOv(a.hi, b.lo); ok2 {
				return intRange(lo, hi)
			}
		}
	case bytecode.IAnd:
		// x & mask with a non-negative constant mask is in [0, mask].
		if aok && an >= 0 {
			return intRange(0, an)
		}
		if bok && bn >= 0 {
			return intRange(0, bn)
		}
	case bytecode.IRem:
		// x % d for non-negative x and positive constant d is in [0, d-1].
		if bok && bn > 0 && a.lo >= 0 {
			return intRange(0, bn-1)
		}
	case bytecode.IUshr:
		if bok {
			if s := uint64(bn) & 63; s > 0 {
				return intRange(0, int64(^uint64(0)>>1>>(s-1)))
			}
			return a // shift by zero is the identity
		}
	}
	return topInt()
}

func addNoOv(a, b int64) (int64, bool) {
	s := a + b
	if (b > 0 && s < a) || (b < 0 && s > a) {
		return 0, false
	}
	return s, true
}

func subNoOv(a, b int64) (int64, bool) {
	d := a - b
	if (b < 0 && d < a) || (b > 0 && d > a) {
		return 0, false
	}
	return d, true
}

// floatBinop folds one float arithmetic or compare operation when both
// operands are constant; no float operation traps, so the fold never
// refuses.
func floatBinop(op bytecode.Op, a, b absVal) absVal {
	isCmp := op == bytecode.FCmpL || op == bytecode.FCmpG
	ab, aok := a.isFloatConst()
	bb, bok := b.isFloatConst()
	if aok && bok {
		v, _ := bytecode.FoldBinary(op, int64(ab), int64(bb))
		if isCmp {
			return intConst(v)
		}
		return floatConst(uint64(v))
	}
	if isCmp {
		return intRange(-1, 1)
	}
	return topFloat()
}
