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
	if err := m.execInstrs(f, b.Instrs[:n-1]); err != nil {
		return nil, false, err
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
// control transfer, switching on the block's pre-decoded Kind. Fused trace
// segments lower what they can and delegate the rest here; panics are
// recovered once, by Run.
//
//tracevm:hotpath
func (m *Machine) execTerminator(f *frame, b *cfg.Block) (next *cfg.Block, halted bool, err error) {
	term := b.Terminator()
	switch b.Kind {
	case bytecode.FlowNext:
		// Block split by a following leader: the last instruction is an
		// ordinary one.
		if err := m.execInstrs(f, b.Instrs[len(b.Instrs)-1:]); err != nil {
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

// execInstrs executes ins, a run of non-control-flow instructions, in frame
// f. It is the one executor of such instructions: ordinary dispatch, both
// trace tiers (a fused segment's SExec ranges) and the per-instruction
// engine all run their instructions through it. The operand stack lives in locals for the whole
// run — st spans the frame's full capacity and sp is its depth — and is
// written back to f.stack once, on every exit, trap returns included.
// pushFrame sizes that capacity by the verifier's MaxStack, so it is a hard
// bound: a push past it is an index panic, which Run's recoverTrap reports
// as a TrapBadProgram at the block.
//
//tracevm:hotpath
func (m *Machine) execInstrs(f *frame, ins []bytecode.Instr) (err error) {
	st, sp, locals := f.stack[:cap(f.stack)], len(f.stack), f.locals
loop:
	for k := range ins {
		in := &ins[k]
		switch in.Op {
		case bytecode.Nop:

		// Constants.
		case bytecode.IConst:
			st[sp] = IntVal(int64(in.A))
			sp++
		case bytecode.FConst:
			st[sp] = FloatVal(in.F)
			sp++
		case bytecode.SConst:
			st[sp] = RefVal(NewString(m.prog.Strings[in.A]))
			sp++
		case bytecode.AConstNull:
			st[sp] = RefVal(nil)
			sp++

		// Locals.
		case bytecode.ILoad, bytecode.FLoad, bytecode.ALoad:
			st[sp] = locals[in.A]
			sp++
		case bytecode.IStore, bytecode.FStore, bytecode.AStore:
			sp--
			locals[in.A] = st[sp]
		case bytecode.IInc:
			locals[in.A].N += int64(in.B)

		// Stack manipulation.
		case bytecode.Pop:
			sp--
		case bytecode.Dup:
			st[sp] = st[sp-1]
			sp++
		case bytecode.DupX1:
			a, b := st[sp-1], st[sp-2]
			st[sp-2], st[sp-1], st[sp] = a, b, a
			sp++
		case bytecode.Swap:
			st[sp-2], st[sp-1] = st[sp-1], st[sp-2]

		// Integer arithmetic.
		case bytecode.IAdd:
			sp--
			st[sp-1] = IntVal(st[sp-1].N + st[sp].N)
		case bytecode.ISub:
			sp--
			st[sp-1] = IntVal(st[sp-1].N - st[sp].N)
		case bytecode.IMul:
			sp--
			st[sp-1] = IntVal(st[sp-1].N * st[sp].N)
		case bytecode.IDiv:
			sp -= 2
			a, b := st[sp].N, st[sp+1].N
			if b == 0 {
				err = m.trap(TrapDivByZero, in.PC, "%d / 0", a)
				break loop
			}
			if b == -1 {
				// MinInt64 / -1 overflows; Java defines the result as
				// MinInt64, which is exactly the wrapping negation.
				st[sp] = IntVal(-a)
			} else {
				st[sp] = IntVal(a / b)
			}
			sp++
		case bytecode.IRem:
			sp -= 2
			a, b := st[sp].N, st[sp+1].N
			if b == 0 {
				err = m.trap(TrapDivByZero, in.PC, "%d %% 0", a)
				break loop
			}
			if b == -1 {
				st[sp] = IntVal(0) // avoids the MinInt64 % -1 overflow panic
			} else {
				st[sp] = IntVal(a % b)
			}
			sp++
		case bytecode.INeg:
			st[sp-1] = IntVal(-st[sp-1].N)
		case bytecode.IShl:
			sp--
			st[sp-1] = IntVal(st[sp-1].N << (uint64(st[sp].N) & 63))
		case bytecode.IShr:
			sp--
			st[sp-1] = IntVal(st[sp-1].N >> (uint64(st[sp].N) & 63))
		case bytecode.IUshr:
			sp--
			st[sp-1] = IntVal(int64(uint64(st[sp-1].N) >> (uint64(st[sp].N) & 63)))
		case bytecode.IAnd:
			sp--
			st[sp-1] = IntVal(st[sp-1].N & st[sp].N)
		case bytecode.IOr:
			sp--
			st[sp-1] = IntVal(st[sp-1].N | st[sp].N)
		case bytecode.IXor:
			sp--
			st[sp-1] = IntVal(st[sp-1].N ^ st[sp].N)

		// Float arithmetic.
		case bytecode.FAdd:
			sp--
			st[sp-1] = FloatVal(st[sp-1].Float() + st[sp].Float())
		case bytecode.FSub:
			sp--
			st[sp-1] = FloatVal(st[sp-1].Float() - st[sp].Float())
		case bytecode.FMul:
			sp--
			st[sp-1] = FloatVal(st[sp-1].Float() * st[sp].Float())
		case bytecode.FDiv:
			sp--
			st[sp-1] = FloatVal(st[sp-1].Float() / st[sp].Float())
		case bytecode.FRem:
			sp--
			st[sp-1] = FloatVal(math.Mod(st[sp-1].Float(), st[sp].Float()))
		case bytecode.FNeg:
			st[sp-1] = FloatVal(-st[sp-1].Float())

		// Conversions.
		case bytecode.I2F:
			st[sp-1] = FloatVal(float64(st[sp-1].N))
		case bytecode.F2I:
			st[sp-1] = IntVal(bytecode.FloatToInt(st[sp-1].Float()))

		// Float comparison.
		case bytecode.FCmpL, bytecode.FCmpG:
			sp--
			a, b := st[sp-1].Float(), st[sp].Float()
			switch {
			case a < b:
				st[sp-1] = IntVal(-1)
			case a > b:
				st[sp-1] = IntVal(1)
			case a == b:
				st[sp-1] = IntVal(0)
			default: // NaN involved
				if in.Op == bytecode.FCmpL {
					st[sp-1] = IntVal(-1)
				} else {
					st[sp-1] = IntVal(1)
				}
			}

		// Objects.
		case bytecode.New:
			st[sp] = RefVal(NewInstance(m.prog.Classes[in.A]))
			sp++
		case bytecode.GetField:
			ref := &m.prog.FieldRefs[in.A]
			o := st[sp-1].R
			if o == nil {
				err = m.trap(TrapNullDeref, in.PC, "getfield %s", ref.Name)
				break loop
			}
			if o.Kind != KindObject || ref.Field.Offset >= len(o.Fields) {
				err = m.trap(TrapBadCast, in.PC, "getfield %s on incompatible object", ref.Name)
				break loop
			}
			st[sp-1] = o.Fields[ref.Field.Offset]
		case bytecode.PutField:
			ref := &m.prog.FieldRefs[in.A]
			sp -= 2
			o := st[sp].R
			if o == nil {
				err = m.trap(TrapNullDeref, in.PC, "putfield %s", ref.Name)
				break loop
			}
			if o.Kind != KindObject || ref.Field.Offset >= len(o.Fields) {
				err = m.trap(TrapBadCast, in.PC, "putfield %s on incompatible object", ref.Name)
				break loop
			}
			o.Fields[ref.Field.Offset] = st[sp+1]
		case bytecode.GetStatic:
			ref := &m.prog.FieldRefs[in.A]
			st[sp] = m.statics[ref.Class.ID][ref.Field.Offset]
			sp++
		case bytecode.PutStatic:
			ref := &m.prog.FieldRefs[in.A]
			sp--
			m.statics[ref.Class.ID][ref.Field.Offset] = st[sp]
		case bytecode.InstanceOf:
			target := m.prog.Classes[in.A]
			o := st[sp-1].R
			st[sp-1] = BoolVal(o != nil && o.Kind == KindObject && o.Class.IsSubclassOf(target))
		case bytecode.CheckCast:
			target := m.prog.Classes[in.A]
			o := st[sp-1].R
			if o != nil && (o.Kind != KindObject || !o.Class.IsSubclassOf(target)) {
				err = m.trap(TrapBadCast, in.PC, "cannot cast to %s", target.Name)
				break loop
			}

		// Arrays.
		case bytecode.NewArray:
			n := st[sp-1].N
			if n < 0 {
				err = m.trap(TrapIndexOOB, in.PC, "newarray with negative length %d", n)
				break loop
			}
			if in.A == bytecode.ElemByte {
				st[sp-1] = RefVal(NewByteArray(int(n)))
			} else {
				st[sp-1] = RefVal(NewValueArray(in.A, int(n)))
			}
		case bytecode.ArrayLength:
			o := st[sp-1].R
			if o == nil {
				err = m.trap(TrapNullDeref, in.PC, "arraylength on null")
				break loop
			}
			n := o.Length()
			if n < 0 {
				err = m.trap(TrapBadCast, in.PC, "arraylength on non-array")
				break loop
			}
			st[sp-1] = IntVal(int64(n))
		case bytecode.IALoad, bytecode.FALoad, bytecode.AALoad:
			o, i := st[sp-2].R, st[sp-1].N
			if o == nil {
				err = m.trap(TrapNullDeref, in.PC, "array load on null")
				break loop
			}
			if o.Kind != KindArray {
				err = m.trap(TrapBadCast, in.PC, "array load on non-array")
				break loop
			}
			if i < 0 || i >= int64(len(o.Elems)) {
				err = m.trap(TrapIndexOOB, in.PC, "index %d, length %d", i, len(o.Elems))
				break loop
			}
			sp--
			st[sp-1] = o.Elems[i]
		case bytecode.IAStore, bytecode.FAStore, bytecode.AAStore:
			sp -= 3
			o, i := st[sp].R, st[sp+1].N
			if o == nil {
				err = m.trap(TrapNullDeref, in.PC, "array store on null")
				break loop
			}
			if o.Kind != KindArray {
				err = m.trap(TrapBadCast, in.PC, "array store on non-array")
				break loop
			}
			if i < 0 || i >= int64(len(o.Elems)) {
				err = m.trap(TrapIndexOOB, in.PC, "index %d, length %d", i, len(o.Elems))
				break loop
			}
			o.Elems[i] = st[sp+2]
		case bytecode.BALoad:
			o, i := st[sp-2].R, st[sp-1].N
			if o == nil {
				err = m.trap(TrapNullDeref, in.PC, "byte array load on null")
				break loop
			}
			if o.Kind != KindBytes {
				err = m.trap(TrapBadCast, in.PC, "byte array load on non-byte-array")
				break loop
			}
			if i < 0 || i >= int64(len(o.Bytes)) {
				err = m.trap(TrapIndexOOB, in.PC, "index %d, length %d", i, len(o.Bytes))
				break loop
			}
			sp--
			st[sp-1] = IntVal(int64(o.Bytes[i]))
		case bytecode.BAStore:
			sp -= 3
			o, i := st[sp].R, st[sp+1].N
			if o == nil {
				err = m.trap(TrapNullDeref, in.PC, "byte array store on null")
				break loop
			}
			if o.Kind != KindBytes {
				err = m.trap(TrapBadCast, in.PC, "byte array store on non-byte-array")
				break loop
			}
			if i < 0 || i >= int64(len(o.Bytes)) {
				err = m.trap(TrapIndexOOB, in.PC, "index %d, length %d", i, len(o.Bytes))
				break loop
			}
			o.Bytes[i] = byte(st[sp+2].N)

		default:
			err = m.trap(TrapBadProgram, in.PC, "opcode %s is not executable mid-block", in.Op)
			break loop
		}
	}
	f.stack = st[:sp]
	return err
}
