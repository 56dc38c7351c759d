// Package cfg discovers the basic blocks of every method in a linked
// program and assigns each block a dense, program-wide BlockID.
//
// Blocks follow the direct-threaded-inlining model of the paper: a block is
// a maximal straight-line instruction sequence ending at a branch, switch,
// method invocation, return, halt, or immediately before a branch target.
// Invocations end blocks because they are non-inlinable dispatch points —
// the interpreter performs one dispatch per block edge, and the profiler
// hook is attached to that dispatch, so BlockIDs are the vocabulary of the
// entire profiling and trace machinery.
package cfg

import (
	"fmt"
	"sort"

	"repro/internal/bytecode"
	"repro/internal/classfile"
)

// BlockID densely identifies a basic block across the whole program.
type BlockID uint32

// NoBlock is the sentinel for "no successor" / "unknown".
const NoBlock BlockID = ^BlockID(0)

// Block is one basic block.
type Block struct {
	ID     BlockID
	Method *classfile.Method
	Index  int // position within the method's block list
	Instrs []bytecode.Instr

	// Terminator classification (the flow of the last instruction, or
	// FlowNext for blocks split by a following leader).
	Kind bytecode.Flow

	// Static intraprocedural successors. FallThrough is the not-taken
	// successor of a conditional, the lexical successor of a split block,
	// or the return site of a call. Taken is the target of a goto or
	// conditional. Switch blocks use SwitchDefault and SwitchTargets.
	FallThrough   BlockID
	Taken         BlockID
	SwitchDefault BlockID
	SwitchTargets []BlockID
}

// StartPC returns the byte offset of the block's first instruction.
func (b *Block) StartPC() uint32 { return b.Instrs[0].PC }

// Terminator returns the block's final instruction in place (no 80-byte copy).
func (b *Block) Terminator() *bytecode.Instr { return &b.Instrs[len(b.Instrs)-1] }

// NumInstrs returns the number of bytecode instructions in the block.
func (b *Block) NumInstrs() int { return len(b.Instrs) }

// StaticSuccessors returns every statically known successor BlockID
// (interprocedural edges — into callees and back to callers — are dynamic
// and not included).
func (b *Block) StaticSuccessors() []BlockID {
	var out []BlockID
	add := func(id BlockID) {
		if id == NoBlock {
			return
		}
		for _, x := range out {
			if x == id {
				return
			}
		}
		out = append(out, id)
	}
	add(b.Taken)
	add(b.FallThrough)
	add(b.SwitchDefault)
	for _, t := range b.SwitchTargets {
		add(t)
	}
	return out
}

// SwitchSucc returns the successor a switch terminator selects for key,
// mirroring the interpreter's table/lookup dispatch. ok is false when term is
// not a switch or the block's target table is shorter than the key list, so
// an analysis leaves the branch undecided rather than guessing.
func (b *Block) SwitchSucc(term *bytecode.Instr, key int64) (BlockID, bool) {
	switch term.Op {
	case bytecode.TableSwitch:
		idx := key - int64(term.A)
		if idx >= 0 && idx < int64(len(b.SwitchTargets)) {
			return b.SwitchTargets[idx], true
		}
		return b.SwitchDefault, true
	case bytecode.LookupSwitch:
		if len(term.Keys) > len(b.SwitchTargets) {
			return NoBlock, false
		}
		for i, k := range term.Keys {
			if int64(k) == key {
				return b.SwitchTargets[i], true
			}
		}
		return b.SwitchDefault, true
	}
	return NoBlock, false
}

// String identifies the block for diagnostics, e.g. "Main.run#3".
func (b *Block) String() string {
	return fmt.Sprintf("%s#%d", b.Method.QName(), b.Index)
}

// MethodCFG is the control-flow graph of one method.
type MethodCFG struct {
	Method *classfile.Method
	Blocks []*Block
	Entry  *Block

	byPC map[uint32]*Block
}

// BlockAtPC returns the block starting at the given byte offset, or nil.
func (m *MethodCFG) BlockAtPC(pc uint32) *Block { return m.byPC[pc] }

// HandlerEntries returns the blocks that begin the method's exception
// handlers, deduplicated, in exception-table order. These are the targets of
// the method's dynamic (throw) edges.
func (m *MethodCFG) HandlerEntries() []*Block {
	var out []*Block
	for _, h := range m.Method.Handlers {
		b := m.byPC[h.HandlerPC]
		if b == nil {
			continue
		}
		dup := false
		for _, x := range out {
			if x == b {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, b)
		}
	}
	return out
}

// ProgramCFG holds the CFGs of every method plus the global block table.
type ProgramCFG struct {
	Program *classfile.Program
	Methods []*MethodCFG // indexed by Method.ID; nil for native/abstract
	Blocks  []*Block     // indexed by BlockID
}

// Block returns the block with the given global ID, or nil if out of range.
func (p *ProgramCFG) Block(id BlockID) *Block {
	if int(id) >= len(p.Blocks) {
		return nil
	}
	return p.Blocks[id]
}

// MethodEntry returns the entry block of a method, or nil for methods
// without bytecode (native, abstract).
func (p *ProgramCFG) MethodEntry(m *classfile.Method) *Block {
	if m.ID >= len(p.Methods) || p.Methods[m.ID] == nil {
		return nil
	}
	return p.Methods[m.ID].Entry
}

// NumBlocks returns the total number of basic blocks in the program.
func (p *ProgramCFG) NumBlocks() int { return len(p.Blocks) }

// BuildProgram builds CFGs for every bytecode method of a linked program.
func BuildProgram(prog *classfile.Program) (*ProgramCFG, error) {
	if !prog.Linked() {
		return nil, fmt.Errorf("cfg: program is not linked")
	}
	pcfg := &ProgramCFG{
		Program: prog,
		Methods: make([]*MethodCFG, len(prog.Methods)),
	}
	for _, m := range prog.Methods {
		if len(m.Code) == 0 {
			continue // native or abstract
		}
		mc, err := buildMethod(m, BlockID(len(pcfg.Blocks)))
		if err != nil {
			return nil, err
		}
		pcfg.Methods[m.ID] = mc
		for _, b := range mc.Blocks {
			pcfg.Blocks = append(pcfg.Blocks, b)
		}
	}
	return pcfg, nil
}

func buildMethod(m *classfile.Method, firstID BlockID) (*MethodCFG, error) {
	ins, err := bytecode.Decode(m.Code)
	if err != nil {
		return nil, fmt.Errorf("cfg: method %s: %w", m.QName(), err)
	}

	// Find leaders: the entry, every branch/switch target, every exception
	// handler, and every instruction following a terminator.
	leaders := map[uint32]bool{0: true}
	for _, in := range ins {
		for _, t := range in.BranchTargets() {
			leaders[t] = true
		}
		if in.Op.IsTerminator() {
			leaders[in.Next()] = true
		}
	}
	for _, h := range m.Handlers {
		leaders[h.HandlerPC] = true
	}

	// Partition instructions into blocks.
	var mc = &MethodCFG{Method: m, byPC: make(map[uint32]*Block)}
	var cur *Block
	for _, in := range ins {
		if leaders[in.PC] || cur == nil {
			cur = &Block{
				ID:            firstID + BlockID(len(mc.Blocks)),
				Method:        m,
				Index:         len(mc.Blocks),
				FallThrough:   NoBlock,
				Taken:         NoBlock,
				SwitchDefault: NoBlock,
			}
			mc.Blocks = append(mc.Blocks, cur)
			mc.byPC[in.PC] = cur
		}
		cur.Instrs = append(cur.Instrs, in)
	}
	if len(mc.Blocks) == 0 {
		return nil, fmt.Errorf("cfg: method %s has no instructions", m.QName())
	}
	mc.Entry = mc.Blocks[0]

	// Resolve successors.
	for i, b := range mc.Blocks {
		term := b.Terminator()
		b.Kind = bytecode.InfoOf(term.Op).Flow
		next := func(pc uint32) (BlockID, error) {
			t := mc.byPC[pc]
			if t == nil {
				return NoBlock, fmt.Errorf("cfg: method %s: no block at pc %d", m.QName(), pc)
			}
			return t.ID, nil
		}
		switch b.Kind {
		case bytecode.FlowNext:
			// Block split by a following leader: fallthrough successor.
			if i+1 >= len(mc.Blocks) {
				return nil, fmt.Errorf("cfg: method %s: block %d falls off the method", m.QName(), i)
			}
			b.FallThrough = mc.Blocks[i+1].ID
		case bytecode.FlowGoto:
			id, err := next(uint32(term.A))
			if err != nil {
				return nil, err
			}
			b.Taken = id
		case bytecode.FlowCond:
			id, err := next(uint32(term.A))
			if err != nil {
				return nil, err
			}
			b.Taken = id
			ft, err := next(term.Next())
			if err != nil {
				return nil, err
			}
			b.FallThrough = ft
		case bytecode.FlowSwitch:
			id, err := next(term.Dflt)
			if err != nil {
				return nil, err
			}
			b.SwitchDefault = id
			b.SwitchTargets = make([]BlockID, len(term.Targets))
			for j, t := range term.Targets {
				tid, err := next(t)
				if err != nil {
					return nil, err
				}
				b.SwitchTargets[j] = tid
			}
		case bytecode.FlowCall:
			// The return site: the block after the call, if any code
			// follows (a call in tail position before a return still has
			// a following block because calls are terminators).
			ft, err := next(term.Next())
			if err != nil {
				return nil, fmt.Errorf("cfg: method %s: call at pc %d has no return site: %w", m.QName(), term.PC, err)
			}
			b.FallThrough = ft
		case bytecode.FlowReturn, bytecode.FlowHalt, bytecode.FlowThrow:
			// No static intraprocedural successors (throw successors are
			// resolved dynamically against the exception tables).
		}
	}
	return mc, nil
}

// Dump renders a method CFG for debugging.
func (m *MethodCFG) Dump() string {
	var s string
	for _, b := range m.Blocks {
		s += fmt.Sprintf("block %d (global %d) pc=%d kind=%v", b.Index, b.ID, b.StartPC(), b.Kind)
		succ := b.StaticSuccessors()
		if len(succ) > 0 {
			s += " ->"
			ids := make([]int, len(succ))
			for i, x := range succ {
				ids[i] = int(x)
			}
			sort.Ints(ids)
			for _, x := range ids {
				s += fmt.Sprintf(" %d", x)
			}
		}
		s += "\n"
		for _, in := range b.Instrs {
			s += fmt.Sprintf("    %6d: %s\n", in.PC, in)
		}
	}
	return s
}
