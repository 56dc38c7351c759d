package vm

import (
	"fmt"
	"math"

	"repro/internal/bytecode"
	"repro/internal/cfg"
	"repro/internal/classfile"
)

func (f *frame) push(v Value) { f.stack = append(f.stack, v) }

func (f *frame) pop() Value {
	v := f.stack[len(f.stack)-1]
	f.stack = f.stack[:len(f.stack)-1]
	return v
}

func (f *frame) peek() Value { return f.stack[len(f.stack)-1] }

// stepBlock executes one basic block in the top frame and applies its
// control transfer: it resolves branch targets, pushes and pops call frames,
// and runs native methods. It returns the next block to dispatch, or
// halted=true when the program finished.
//
//tracevm:hotpath
func (m *Machine) stepBlock(b *cfg.Block) (next *cfg.Block, halted bool, err error) {
	m.block = b
	f := m.top()
	n := len(b.Instrs)
	m.ctr.Instrs += int64(n)
	m.steps += int64(n)
	if m.probe != nil || m.interrupt.Load() || m.steps > m.maxSteps {
		if err := m.checkBlock(f, b); err != nil {
			return nil, false, err
		}
	}
	for i := 0; i < n-1; i++ {
		if err := m.execInstr(f, &b.Instrs[i]); err != nil {
			return nil, false, err
		}
	}
	return m.execTerminator(f, b)
}

// recoverTrap, deferred once by Run, turns a panic — operand stack underflow
// or similar breakage from hand-written bytecode that the linker's checks
// cannot see — into a TrapBadProgram at m.block, the block or segment last
// entered (its method too: on a call or return edge the top frame is already
// the next block's), so a dispatch-hook panic names the block just run.
func (m *Machine) recoverTrap(err *error) {
	if r := recover(); r != nil {
		*err = &Trap{Kind: TrapBadProgram, Detail: fmt.Sprint("execution panic: ", r), Method: m.block.Method.QName(), PC: m.block.StartPC()}
	}
}

// checkBlock is the checked part of entering block b in frame f, after its
// instructions have been charged: it shows the block to the probe and traps
// if the host cancelled the run or the step budget is spent. Ordinary
// dispatch and the trace executor call it only when one of those can apply.
func (m *Machine) checkBlock(f *frame, b *cfg.Block) error {
	if m.probe != nil {
		m.probe(b, f.locals, f.stack)
	}
	if m.interrupt.Load() {
		return m.trap(TrapInterrupted, b.StartPC(), "cancelled by host")
	}
	if m.steps > m.maxSteps {
		return m.trap(TrapStepLimit, b.StartPC(), "after %d instructions", m.steps)
	}
	return nil
}

// execTerminator executes a block's final instruction and applies its
// control transfer. Fused trace segments lower what they can and delegate
// the rest here; panics are recovered once, by Run.
//
//tracevm:hotpath
func (m *Machine) execTerminator(f *frame, b *cfg.Block) (next *cfg.Block, halted bool, err error) {
	term := b.Terminator()
	switch bytecode.InfoOf(term.Op).Flow {
	case bytecode.FlowNext:
		// Block split by a following leader: the last instruction is an
		// ordinary one.
		if err := m.execInstr(f, term); err != nil {
			return nil, false, err
		}
		return m.blockAt(b.FallThrough, term.PC)

	case bytecode.FlowGoto:
		return m.blockAt(b.Taken, term.PC)

	case bytecode.FlowCond:
		taken, err := m.evalCond(f, term)
		if err != nil {
			return nil, false, err
		}
		if taken {
			return m.blockAt(b.Taken, term.PC)
		}
		return m.blockAt(b.FallThrough, term.PC)

	case bytecode.FlowSwitch:
		key := f.pop().Int()
		switch term.Op {
		case bytecode.TableSwitch:
			idx := key - int64(term.A)
			if idx >= 0 && idx < int64(len(b.SwitchTargets)) {
				return m.blockAt(b.SwitchTargets[idx], term.PC)
			}
			return m.blockAt(b.SwitchDefault, term.PC)
		default: // LookupSwitch
			for i, k := range term.Keys {
				if int64(k) == key {
					return m.blockAt(b.SwitchTargets[i], term.PC)
				}
			}
			return m.blockAt(b.SwitchDefault, term.PC)
		}

	case bytecode.FlowCall:
		return m.invoke(f, b, term)

	case bytecode.FlowReturn:
		var ret Value
		if term.Op != bytecode.ReturnVoid {
			ret = f.pop()
		}
		m.popFrame()
		if len(m.frames) == 0 {
			return nil, true, nil
		}
		caller := m.top()
		if f.method.Ret != classfile.TVoid {
			caller.push(ret)
		}
		if caller.retBlock == nil {
			return nil, false, m.trap(TrapBadProgram, term.PC, "return with no recorded return site in %s", caller.method.QName())
		}
		return caller.retBlock, false, nil

	case bytecode.FlowHalt:
		return nil, true, nil

	case bytecode.FlowThrow:
		exc := f.pop().Ref()
		if exc == nil {
			return nil, false, m.trap(TrapNullDeref, term.PC, "throw null")
		}
		return m.unwind(exc, term.PC)
	}
	return nil, false, m.trap(TrapBadProgram, term.PC, "unhandled terminator %s", term.Op)
}

// unwind walks the frame stack looking for an exception handler covering
// the throwing pc; frames without one are discarded, with the pending call
// site becoming the pc checked in the caller. The matched handler's block
// is the dynamic successor of the throw.
func (m *Machine) unwind(exc *Object, pc uint32) (*cfg.Block, bool, error) {
	var thrownClass *classfile.Class
	if exc.Kind == KindObject {
		thrownClass = exc.Class
	}
	for {
		f := m.top()
		if h := f.method.HandlerFor(pc, thrownClass); h != nil {
			f.stack = f.stack[:0]
			f.push(RefVal(exc))
			mc := m.cfg.Methods[f.method.ID]
			hb := mc.BlockAtPC(h.HandlerPC)
			if hb == nil {
				return nil, false, m.trap(TrapBadProgram, pc, "handler pc %d has no block", h.HandlerPC)
			}
			return hb, false, nil
		}
		m.popFrame()
		if len(m.frames) == 0 {
			detail := "exception"
			if thrownClass != nil {
				detail = "exception of class " + thrownClass.Name
			}
			return nil, false, &Trap{Kind: TrapUncaught, Detail: detail, Method: f.method.QName(), PC: pc}
		}
		pc = m.top().callPC
	}
}

//tracevm:hotpath
func (m *Machine) blockAt(id cfg.BlockID, pc uint32) (*cfg.Block, bool, error) {
	b := m.cfg.Block(id)
	if b == nil {
		return nil, false, m.trap(TrapBadProgram, pc, "control transfer to unknown block %d", id)
	}
	return b, false, nil
}

//tracevm:hotpath
func (m *Machine) evalCond(f *frame, in *bytecode.Instr) (bool, error) {
	switch in.Op {
	case bytecode.IfEq:
		return f.pop().Int() == 0, nil
	case bytecode.IfNe:
		return f.pop().Int() != 0, nil
	case bytecode.IfLt:
		return f.pop().Int() < 0, nil
	case bytecode.IfGe:
		return f.pop().Int() >= 0, nil
	case bytecode.IfGt:
		return f.pop().Int() > 0, nil
	case bytecode.IfLe:
		return f.pop().Int() <= 0, nil
	case bytecode.IfICmpEq, bytecode.IfICmpNe, bytecode.IfICmpLt,
		bytecode.IfICmpGe, bytecode.IfICmpGt, bytecode.IfICmpLe:
		b := f.pop().Int()
		a := f.pop().Int()
		switch in.Op {
		case bytecode.IfICmpEq:
			return a == b, nil
		case bytecode.IfICmpNe:
			return a != b, nil
		case bytecode.IfICmpLt:
			return a < b, nil
		case bytecode.IfICmpGe:
			return a >= b, nil
		case bytecode.IfICmpGt:
			return a > b, nil
		default:
			return a <= b, nil
		}
	case bytecode.IfACmpEq:
		b := f.pop().Ref()
		a := f.pop().Ref()
		return a == b, nil
	case bytecode.IfACmpNe:
		b := f.pop().Ref()
		a := f.pop().Ref()
		return a != b, nil
	case bytecode.IfNull:
		return f.pop().IsNull(), nil
	case bytecode.IfNonNull:
		return !f.pop().IsNull(), nil
	}
	return false, m.trap(TrapBadProgram, in.PC, "not a conditional: %s", in.Op)
}

// invoke handles the three invoke opcodes, including native dispatch.
//
//tracevm:hotpath
func (m *Machine) invoke(f *frame, b *cfg.Block, in *bytecode.Instr) (*cfg.Block, bool, error) {
	ref := &m.prog.MethodRefs[in.A]
	callee := ref.Method
	nargs := callee.NArgs()

	// Pop arguments (last argument on top of stack) into the scratch
	// buffer; pushFrame copies them before the buffer is reused.
	args := m.popArgs(f, nargs)

	if ref.Kind == classfile.RefVirtual {
		recv := args[0].Ref()
		if recv == nil {
			return nil, false, m.trap(TrapNullDeref, in.PC, "invokevirtual %s on null", callee.QName())
		}
		if recv.Kind != KindObject {
			return nil, false, m.trap(TrapBadCast, in.PC, "invokevirtual %s on non-object", callee.QName())
		}
		if ref.VSlot >= len(recv.Class.VTable) {
			return nil, false, m.trap(TrapBadProgram, in.PC, "vtable slot %d out of range for class %s", ref.VSlot, recv.Class.Name)
		}
		callee = recv.Class.VTable[ref.VSlot]
	} else if ref.Kind == classfile.RefSpecial {
		if args[0].Ref() == nil {
			return nil, false, m.trap(TrapNullDeref, in.PC, "invokespecial %s on null", callee.QName())
		}
	}
	m.ctr.MethodCalls++

	if callee.Abstract {
		return nil, false, m.trap(TrapAbstractCall, in.PC, "%s", callee.QName())
	}

	retSite, halted, err := m.blockAt(b.FallThrough, in.PC)
	if err != nil || halted {
		return retSite, halted, err
	}

	if callee.Native != "" {
		fn := m.natives[callee.Native]
		if fn == nil {
			return nil, false, m.trap(TrapNoNative, in.PC, "%s -> %q", callee.QName(), callee.Native)
		}
		m.ctr.NativeCalls++
		ret, err := fn(m, args)
		if err != nil {
			if t, ok := AsTrap(err); ok && t.Method == "" {
				t.Method = callee.QName()
			}
			return nil, false, err
		}
		if callee.Ret != classfile.TVoid {
			f.push(ret)
		}
		// A native call does not enter bytecode: control resumes at the
		// return site directly, so the dispatch edge is call-block -> site.
		return retSite, false, nil
	}

	if len(m.frames) >= m.maxFrames {
		return nil, false, m.trap(TrapStackOverflow, in.PC, "calling %s at depth %d", callee.QName(), len(m.frames))
	}
	entry := m.cfg.MethodEntry(callee)
	if entry == nil {
		return nil, false, m.trap(TrapBadProgram, in.PC, "callee %s has no bytecode", callee.QName())
	}
	f.retBlock = retSite
	f.callPC = in.PC
	m.pushFrame(callee, args)
	return entry, false, nil
}

// execInstr executes one non-control-flow instruction in frame f.
//
//tracevm:hotpath
func (m *Machine) execInstr(f *frame, in *bytecode.Instr) error {
	switch in.Op {
	case bytecode.Nop:

	// Constants.
	case bytecode.IConst:
		f.push(IntVal(int64(in.A)))
	case bytecode.FConst:
		f.push(FloatVal(in.F))
	case bytecode.SConst:
		f.push(RefVal(NewString(m.prog.Strings[in.A])))
	case bytecode.AConstNull:
		f.push(RefVal(nil))

	// Locals.
	case bytecode.ILoad, bytecode.FLoad, bytecode.ALoad:
		f.push(f.locals[in.A])
	case bytecode.IStore, bytecode.FStore, bytecode.AStore:
		f.locals[in.A] = f.pop()
	case bytecode.IInc:
		f.locals[in.A].N += int64(in.B)

	// Stack manipulation.
	case bytecode.Pop:
		f.pop()
	case bytecode.Dup:
		f.push(f.peek())
	case bytecode.DupX1:
		a := f.pop()
		b := f.pop()
		f.push(a)
		f.push(b)
		f.push(a)
	case bytecode.Swap:
		a := f.pop()
		b := f.pop()
		f.push(a)
		f.push(b)

	// Integer arithmetic.
	case bytecode.IAdd:
		b := f.pop().Int()
		f.push(IntVal(f.pop().Int() + b))
	case bytecode.ISub:
		b := f.pop().Int()
		f.push(IntVal(f.pop().Int() - b))
	case bytecode.IMul:
		b := f.pop().Int()
		f.push(IntVal(f.pop().Int() * b))
	case bytecode.IDiv:
		b := f.pop().Int()
		a := f.pop().Int()
		if b == 0 {
			return m.trap(TrapDivByZero, in.PC, "%d / 0", a)
		}
		if b == -1 {
			// MinInt64 / -1 overflows; Java defines the result as
			// MinInt64, which is exactly the wrapping negation.
			f.push(IntVal(-a))
		} else {
			f.push(IntVal(a / b))
		}
	case bytecode.IRem:
		b := f.pop().Int()
		a := f.pop().Int()
		if b == 0 {
			return m.trap(TrapDivByZero, in.PC, "%d %% 0", a)
		}
		if b == -1 {
			f.push(IntVal(0)) // avoids the MinInt64 % -1 overflow panic
		} else {
			f.push(IntVal(a % b))
		}
	case bytecode.INeg:
		f.push(IntVal(-f.pop().Int()))
	case bytecode.IShl:
		b := f.pop().Int()
		f.push(IntVal(f.pop().Int() << (uint64(b) & 63)))
	case bytecode.IShr:
		b := f.pop().Int()
		f.push(IntVal(f.pop().Int() >> (uint64(b) & 63)))
	case bytecode.IUshr:
		b := f.pop().Int()
		f.push(IntVal(int64(uint64(f.pop().Int()) >> (uint64(b) & 63))))
	case bytecode.IAnd:
		b := f.pop().Int()
		f.push(IntVal(f.pop().Int() & b))
	case bytecode.IOr:
		b := f.pop().Int()
		f.push(IntVal(f.pop().Int() | b))
	case bytecode.IXor:
		b := f.pop().Int()
		f.push(IntVal(f.pop().Int() ^ b))

	// Float arithmetic.
	case bytecode.FAdd:
		b := f.pop().Float()
		f.push(FloatVal(f.pop().Float() + b))
	case bytecode.FSub:
		b := f.pop().Float()
		f.push(FloatVal(f.pop().Float() - b))
	case bytecode.FMul:
		b := f.pop().Float()
		f.push(FloatVal(f.pop().Float() * b))
	case bytecode.FDiv:
		b := f.pop().Float()
		f.push(FloatVal(f.pop().Float() / b))
	case bytecode.FRem:
		b := f.pop().Float()
		f.push(FloatVal(math.Mod(f.pop().Float(), b)))
	case bytecode.FNeg:
		f.push(FloatVal(-f.pop().Float()))

	// Conversions.
	case bytecode.I2F:
		f.push(FloatVal(float64(f.pop().Int())))
	case bytecode.F2I:
		f.push(IntVal(bytecode.FloatToInt(f.pop().Float())))

	// Float comparison.
	case bytecode.FCmpL, bytecode.FCmpG:
		b := f.pop().Float()
		a := f.pop().Float()
		switch {
		case a < b:
			f.push(IntVal(-1))
		case a > b:
			f.push(IntVal(1))
		case a == b:
			f.push(IntVal(0))
		default: // NaN involved
			if in.Op == bytecode.FCmpL {
				f.push(IntVal(-1))
			} else {
				f.push(IntVal(1))
			}
		}

	// Objects.
	case bytecode.New:
		f.push(RefVal(NewInstance(m.prog.Classes[in.A])))
	case bytecode.GetField:
		ref := &m.prog.FieldRefs[in.A]
		o := f.pop().Ref()
		if o == nil {
			return m.trap(TrapNullDeref, in.PC, "getfield %s", ref.Name)
		}
		if o.Kind != KindObject || ref.Field.Offset >= len(o.Fields) {
			return m.trap(TrapBadCast, in.PC, "getfield %s on incompatible object", ref.Name)
		}
		f.push(o.Fields[ref.Field.Offset])
	case bytecode.PutField:
		ref := &m.prog.FieldRefs[in.A]
		v := f.pop()
		o := f.pop().Ref()
		if o == nil {
			return m.trap(TrapNullDeref, in.PC, "putfield %s", ref.Name)
		}
		if o.Kind != KindObject || ref.Field.Offset >= len(o.Fields) {
			return m.trap(TrapBadCast, in.PC, "putfield %s on incompatible object", ref.Name)
		}
		o.Fields[ref.Field.Offset] = v
	case bytecode.GetStatic:
		ref := &m.prog.FieldRefs[in.A]
		f.push(m.statics[ref.Class.ID][ref.Field.Offset])
	case bytecode.PutStatic:
		ref := &m.prog.FieldRefs[in.A]
		m.statics[ref.Class.ID][ref.Field.Offset] = f.pop()
	case bytecode.InstanceOf:
		target := m.prog.Classes[in.A]
		o := f.pop().Ref()
		f.push(BoolVal(o != nil && o.Kind == KindObject && o.Class.IsSubclassOf(target)))
	case bytecode.CheckCast:
		target := m.prog.Classes[in.A]
		o := f.peek().Ref()
		if o != nil && (o.Kind != KindObject || !o.Class.IsSubclassOf(target)) {
			return m.trap(TrapBadCast, in.PC, "cannot cast to %s", target.Name)
		}

	// Arrays.
	case bytecode.NewArray:
		n := f.pop().Int()
		if n < 0 {
			return m.trap(TrapIndexOOB, in.PC, "newarray with negative length %d", n)
		}
		if in.A == bytecode.ElemByte {
			f.push(RefVal(NewByteArray(int(n))))
		} else {
			f.push(RefVal(NewValueArray(in.A, int(n))))
		}
	case bytecode.ArrayLength:
		o := f.pop().Ref()
		if o == nil {
			return m.trap(TrapNullDeref, in.PC, "arraylength on null")
		}
		n := o.Length()
		if n < 0 {
			return m.trap(TrapBadCast, in.PC, "arraylength on non-array")
		}
		f.push(IntVal(int64(n)))
	case bytecode.IALoad, bytecode.FALoad, bytecode.AALoad:
		i := f.pop().Int()
		o := f.pop().Ref()
		if o == nil {
			return m.trap(TrapNullDeref, in.PC, "array load on null")
		}
		if o.Kind != KindArray {
			return m.trap(TrapBadCast, in.PC, "array load on non-array")
		}
		if i < 0 || i >= int64(len(o.Elems)) {
			return m.trap(TrapIndexOOB, in.PC, "index %d, length %d", i, len(o.Elems))
		}
		f.push(o.Elems[i])
	case bytecode.IAStore, bytecode.FAStore, bytecode.AAStore:
		v := f.pop()
		i := f.pop().Int()
		o := f.pop().Ref()
		if o == nil {
			return m.trap(TrapNullDeref, in.PC, "array store on null")
		}
		if o.Kind != KindArray {
			return m.trap(TrapBadCast, in.PC, "array store on non-array")
		}
		if i < 0 || i >= int64(len(o.Elems)) {
			return m.trap(TrapIndexOOB, in.PC, "index %d, length %d", i, len(o.Elems))
		}
		o.Elems[i] = v
	case bytecode.BALoad:
		i := f.pop().Int()
		o := f.pop().Ref()
		if o == nil {
			return m.trap(TrapNullDeref, in.PC, "byte array load on null")
		}
		if o.Kind != KindBytes {
			return m.trap(TrapBadCast, in.PC, "byte array load on non-byte-array")
		}
		if i < 0 || i >= int64(len(o.Bytes)) {
			return m.trap(TrapIndexOOB, in.PC, "index %d, length %d", i, len(o.Bytes))
		}
		f.push(IntVal(int64(o.Bytes[i])))
	case bytecode.BAStore:
		v := f.pop().Int()
		i := f.pop().Int()
		o := f.pop().Ref()
		if o == nil {
			return m.trap(TrapNullDeref, in.PC, "byte array store on null")
		}
		if o.Kind != KindBytes {
			return m.trap(TrapBadCast, in.PC, "byte array store on non-byte-array")
		}
		if i < 0 || i >= int64(len(o.Bytes)) {
			return m.trap(TrapIndexOOB, in.PC, "index %d, length %d", i, len(o.Bytes))
		}
		o.Bytes[i] = byte(v)

	default:
		return m.trap(TrapBadProgram, in.PC, "opcode %s is not executable mid-block", in.Op)
	}
	return nil
}
