package vm

import (
	"repro/internal/bytecode"
	"repro/internal/classfile"
)

// Per-instruction dispatch engine: the paper's Figure 1 model, "an ordinary
// virtual machine interpreter dispatches one instruction at a time". It
// exists to make the dispatch-granularity comparison measurable: the same
// programs run under instruction dispatch, block dispatch (Figure 2), and
// trace dispatch. Profiling and trace dispatch are block-level concepts and
// are not available in this mode.

// decodedMethod caches the decoded instruction stream of a method plus the
// pc -> index map used to resolve branch targets.
type decodedMethod struct {
	ins []bytecode.Instr
	idx map[uint32]int
}

func (m *Machine) decodedFor(meth *classfile.Method) (*decodedMethod, error) {
	if m.decoded == nil {
		m.decoded = make(map[*classfile.Method]*decodedMethod)
	}
	if d, ok := m.decoded[meth]; ok {
		return d, nil
	}
	ins, err := bytecode.Decode(meth.Code)
	if err != nil {
		return nil, err
	}
	d := &decodedMethod{ins: ins, idx: make(map[uint32]int, len(ins))}
	for i, in := range ins {
		d.idx[in.PC] = i
	}
	m.decoded[meth] = d
	return d, nil
}

// RunInstrMode executes the program with one dispatch per instruction,
// counting each into Counters.InstrDispatches. Output and results are
// identical to Run; only the dispatch accounting and engine shape differ.
func (m *Machine) RunInstrMode() (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = m.trap(TrapBadProgram, 0, "execution panic: %v", r)
		}
	}()

	main := m.prog.Main
	m.frames = m.frames[:0]
	f := m.pushFrame(main, nil)
	d, err := m.decodedFor(main)
	if err != nil {
		return err
	}

	// Per-frame return indices parallel to m.frames (the block engine's
	// retBlock is unused here).
	retIdx := []int{0}
	decs := []*decodedMethod{d}
	pc := 0

	for {
		in := &d.ins[pc]
		m.ctr.Instrs++
		m.ctr.InstrDispatches++
		if m.interrupt.Load() {
			return m.trap(TrapInterrupted, in.PC, "cancelled by host")
		}
		if m.steps++; m.steps > m.maxSteps {
			return m.trap(TrapStepLimit, in.PC, "after %d instructions", m.steps)
		}

		switch bytecode.InfoOf(in.Op).Flow {
		case bytecode.FlowNext:
			if err := m.execInstrs(f, d.ins[pc:pc+1]); err != nil {
				return err
			}
			pc++

		case bytecode.FlowGoto:
			pc = d.idx[uint32(in.A)]

		case bytecode.FlowCond:
			taken, err := m.evalCond(f, in)
			if err != nil {
				return err
			}
			if taken {
				pc = d.idx[uint32(in.A)]
			} else {
				pc++
			}

		case bytecode.FlowSwitch:
			key := f.pop().Int()
			target := in.Dflt
			if in.Op == bytecode.TableSwitch {
				if rel := key - int64(in.A); rel >= 0 && rel < int64(len(in.Targets)) {
					target = in.Targets[rel]
				}
			} else {
				for i, k := range in.Keys {
					if int64(k) == key {
						target = in.Targets[i]
						break
					}
				}
			}
			pc = d.idx[target]

		case bytecode.FlowCall:
			ref := &m.prog.MethodRefs[in.A]
			callee := ref.Method
			nargs := callee.NArgs()
			args := m.popArgs(f, nargs)
			if ref.Kind == classfile.RefVirtual {
				recv := args[0].Ref()
				if recv == nil {
					return m.trap(TrapNullDeref, in.PC, "invokevirtual %s on null", callee.QName())
				}
				if recv.Kind != KindObject {
					return m.trap(TrapBadCast, in.PC, "invokevirtual %s on non-object", callee.QName())
				}
				callee = recv.Class.VTable[ref.VSlot]
			} else if ref.Kind == classfile.RefSpecial && args[0].Ref() == nil {
				return m.trap(TrapNullDeref, in.PC, "invokespecial %s on null", callee.QName())
			}
			m.ctr.MethodCalls++
			if callee.Abstract {
				return m.trap(TrapAbstractCall, in.PC, "%s", callee.QName())
			}
			if callee.Native != "" {
				fn := m.natives[callee.Native]
				if fn == nil {
					return m.trap(TrapNoNative, in.PC, "%s -> %q", callee.QName(), callee.Native)
				}
				m.ctr.NativeCalls++
				ret, err := fn(m, args)
				if err != nil {
					return err
				}
				if callee.Ret != classfile.TVoid {
					f.push(ret)
				}
				pc++
				continue
			}
			if len(m.frames) >= m.maxFrames {
				return m.trap(TrapStackOverflow, in.PC, "calling %s at depth %d", callee.QName(), len(m.frames))
			}
			cd, err := m.decodedFor(callee)
			if err != nil {
				return err
			}
			retIdx = append(retIdx, pc+1)
			decs = append(decs, cd)
			f = m.pushFrame(callee, args)
			d = cd
			pc = 0

		case bytecode.FlowReturn:
			var ret Value
			if in.Op != bytecode.ReturnVoid {
				ret = f.pop()
			}
			retMeth := f.method
			m.popFrame()
			r := retIdx[len(retIdx)-1]
			retIdx = retIdx[:len(retIdx)-1]
			decs = decs[:len(decs)-1]
			if len(m.frames) == 0 {
				return nil
			}
			f = m.top()
			d = decs[len(decs)-1]
			pc = r
			if retMeth.Ret != classfile.TVoid {
				f.push(ret)
			}

		case bytecode.FlowHalt:
			return nil

		case bytecode.FlowThrow:
			exc := f.pop().Ref()
			if exc == nil {
				return m.trap(TrapNullDeref, in.PC, "throw null")
			}
			var thrownClass *classfile.Class
			if exc.Kind == KindObject {
				thrownClass = exc.Class
			}
			throwPC := in.PC
			handled := false
			for !handled {
				fr := m.top()
				if h := fr.method.HandlerFor(throwPC, thrownClass); h != nil {
					fr.stack = fr.stack[:0]
					fr.push(RefVal(exc))
					f = fr
					d = decs[len(decs)-1]
					pc = d.idx[h.HandlerPC]
					handled = true
					break
				}
				m.popFrame()
				r := retIdx[len(retIdx)-1]
				retIdx = retIdx[:len(retIdx)-1]
				decs = decs[:len(decs)-1]
				if len(m.frames) == 0 {
					detail := "exception"
					if thrownClass != nil {
						detail = "exception of class " + thrownClass.Name
					}
					return &Trap{Kind: TrapUncaught, Detail: detail, Method: fr.method.QName(), PC: throwPC}
				}
				// The pc to check in the caller is its pending invoke.
				callerDec := decs[len(decs)-1]
				throwPC = callerDec.ins[r-1].PC
			}
		}
	}
}
