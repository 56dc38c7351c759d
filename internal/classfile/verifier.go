package classfile

import (
	"fmt"

	"repro/internal/bytecode"
)

// Stack-depth verifier: an abstract interpretation over the method's
// bytecode that proves the operand stack never underflows and that every
// program point is reached with one consistent stack depth (the structural
// half of the JVM's verifier; slots here are untyped). Linking runs it on
// every bytecode method, so the interpreter's hot paths can assume balanced
// stacks, and it computes Method.MaxStack as a byproduct.

// Reverify re-validates one method after a tool (such as the bytecode
// optimizer) rewrote its code, refreshing MaxStack. The program must be
// linked.
func (p *Program) Reverify(m *Method) error {
	if !p.linked {
		return fmt.Errorf("classfile: reverify: program is not linked")
	}
	if err := p.validateMethod(m); err != nil {
		return err
	}
	ins, err := bytecode.Decode(m.Code)
	if err != nil {
		return err
	}
	depth, err := p.verifyStack(m, ins)
	if err != nil {
		return err
	}
	m.MaxStack = depth
	return nil
}

// verifyStack checks m's code and returns the maximum operand stack depth.
func (p *Program) verifyStack(m *Method, ins []bytecode.Instr) (int, error) {
	byPC := make(map[uint32]int, len(ins))
	for i, in := range ins {
		byPC[in.PC] = i
	}

	const unseen = -1
	depthAt := make([]int, len(ins))
	for i := range depthAt {
		depthAt[i] = unseen
	}

	bad := func(pc uint32, format string, args ...any) error {
		return fmt.Errorf("classfile: verify %s pc %d: %s", m.QName(), pc, fmt.Sprintf(format, args...))
	}

	maxDepth := 0
	var work []int
	push := func(idx, depth int, fromPC uint32) error {
		if idx < 0 || idx >= len(ins) {
			return bad(fromPC, "control flows to a non-instruction")
		}
		if prev := depthAt[idx]; prev != unseen {
			if prev != depth {
				return bad(ins[idx].PC, "inconsistent stack depth at join: %d vs %d", prev, depth)
			}
			return nil
		}
		depthAt[idx] = depth
		work = append(work, idx)
		return nil
	}
	if err := push(0, 0, 0); err != nil {
		return 0, err
	}
	// Exception handlers are entered with exactly the thrown reference on
	// the stack.
	for _, h := range m.Handlers {
		if err := push(byPCIdx(byPC, h.HandlerPC), 1, h.HandlerPC); err != nil {
			return 0, err
		}
	}

	for len(work) > 0 {
		idx := work[len(work)-1]
		work = work[:len(work)-1]
		in := ins[idx]
		depth := depthAt[idx]

		pops, pushes, err := p.stackEffect(m, in)
		if err != nil {
			return 0, err
		}
		if depth < pops {
			return 0, bad(in.PC, "%s pops %d with only %d on the stack", in.Op, pops, depth)
		}
		depth = depth - pops + pushes
		if depth > maxDepth {
			maxDepth = depth
		}

		info := bytecode.InfoOf(in.Op)
		switch info.Flow {
		case bytecode.FlowNext, bytecode.FlowCall:
			if err := push(idx+1, depth, in.PC); err != nil {
				return 0, err
			}
		case bytecode.FlowGoto:
			if err := push(byPCIdx(byPC, uint32(in.A)), depth, in.PC); err != nil {
				return 0, err
			}
		case bytecode.FlowCond:
			if err := push(byPCIdx(byPC, uint32(in.A)), depth, in.PC); err != nil {
				return 0, err
			}
			if err := push(idx+1, depth, in.PC); err != nil {
				return 0, err
			}
		case bytecode.FlowSwitch:
			if err := push(byPCIdx(byPC, in.Dflt), depth, in.PC); err != nil {
				return 0, err
			}
			for _, tgt := range in.Targets {
				if err := push(byPCIdx(byPC, tgt), depth, in.PC); err != nil {
					return 0, err
				}
			}
		case bytecode.FlowReturn:
			if depth != 0 {
				return 0, bad(in.PC, "%s leaves %d values on the stack", in.Op, depth)
			}
		case bytecode.FlowHalt, bytecode.FlowThrow:
			// Terminal for this method's control flow; leftover stack is
			// discarded (unwinding clears the operand stack).
		}
	}
	return maxDepth, nil
}

func byPCIdx(byPC map[uint32]int, pc uint32) int {
	if idx, ok := byPC[pc]; ok {
		return idx
	}
	return -1
}

// stackEffect returns the pop/push counts of an instruction: the counts of
// bytecode.StackKinds, with a call's resolved through its method ref.
func (p *Program) stackEffect(m *Method, in bytecode.Instr) (pops, pushes int, err error) {
	if in.Op.IsCall() {
		callee := p.MethodRefs[in.A].Method
		if callee == nil {
			return 0, 0, fmt.Errorf("classfile: verify %s pc %d: unresolved method ref", m.QName(), in.PC)
		}
		pops = callee.NArgs()
		if callee.Ret != TVoid {
			pushes = 1
		}
		return pops, pushes, nil
	}
	popKinds, pushKinds, ok := bytecode.StackKinds(in.Op)
	if !ok {
		return 0, 0, fmt.Errorf("classfile: verify %s pc %d: %s has unmodeled stack effect", m.QName(), in.PC, in.Op)
	}
	return len(popKinds), len(pushKinds), nil
}
