package valueflow_test

import (
	"testing"

	"repro/internal/analysis/valueflow"
	"repro/internal/bytecode"
	"repro/internal/cfg"
	"repro/internal/classfile"
)

// FuzzValueFlowNeverPanics feeds arbitrary bytes as the entry method's code
// (with fuzzed locals count, helper return type, and an exception table)
// through Compute and the guard oracle: every input must produce a fact
// table — never panic, never loop. Inputs the linker or CFG builder reject
// are skipped; everything they accept must be analyzable.
func FuzzValueFlowNeverPanics(f *testing.F) {
	enc := bytecode.NewEncoder()
	for _, in := range []bytecode.Instr{
		{Op: bytecode.IConst, A: 7},
		{Op: bytecode.IStore, A: 2},
		{Op: bytecode.ILoad, A: 2},
		{Op: bytecode.IfEq, A: 0},
		{Op: bytecode.InvokeStatic, A: 0},
		{Op: bytecode.ReturnVoid},
	} {
		if _, err := enc.Emit(in); err != nil {
			f.Fatal(err)
		}
	}
	f.Add(enc.Bytes(), uint16(4), uint8(0), uint8(0), uint8(0), uint8(1))
	f.Add([]byte{byte(bytecode.ReturnVoid)}, uint16(3), uint8(0), uint8(1), uint8(0), uint8(0))
	f.Add([]byte{0xff, 0x01, 0x02}, uint16(3), uint8(0), uint8(2), uint8(1), uint8(3))
	// An exception handler covering an undecided conditional: one step
	// flows the handler edge over the working state's locals and refines a
	// copy of that state for the taken edge.
	code, hstart, hend, hpc := handlerOverCond(f)
	f.Add(code, uint16(3), hstart, hend, hpc, uint8(0))
	// Handler edges from inside a block: a range that starts mid-block,
	// and one-instruction blocks inside a range.
	code, hstart, hend, hpc = rangeFromMidBlock(f)
	f.Add(code, uint16(3), hstart, hend, hpc, uint8(0))
	code, hstart, hend, hpc = oneInstrBlocksInTry(f)
	f.Add(code, uint16(3), hstart, hend, hpc, uint8(0))

	f.Fuzz(func(t *testing.T, code []byte, locals uint16, hstart, hend, hpc, ret uint8) {
		b := classfile.NewBuilder()
		cb := b.Class("Main")
		cb.Field("f", classfile.TFloat)
		cb.StaticField("g", classfile.TInt)
		b.String("s")
		b.MethodRef("Main", "helper", classfile.RefStatic)
		b.MethodRef("Main", "vm", classfile.RefVirtual)
		b.FieldRef("Main", "f", false)
		b.FieldRef("Main", "g", true)

		helper := cb.Method("helper", nil, classfile.Type(ret%4), true)
		helper.MaxLocals = 1
		henc := bytecode.NewEncoder()
		switch classfile.Type(ret % 4) {
		case classfile.TInt:
			henc.Emit(bytecode.Instr{Op: bytecode.IConst, A: 3})
			henc.Emit(bytecode.Instr{Op: bytecode.IReturn})
		case classfile.TFloat:
			henc.Emit(bytecode.Instr{Op: bytecode.FConst, F: 1.5})
			henc.Emit(bytecode.Instr{Op: bytecode.FReturn})
		case classfile.TRef:
			henc.Emit(bytecode.Instr{Op: bytecode.AConstNull})
			henc.Emit(bytecode.Instr{Op: bytecode.AReturn})
		default:
			henc.Emit(bytecode.Instr{Op: bytecode.ReturnVoid})
		}
		helper.Code = henc.Bytes()

		vmeth := cb.Method("vm", nil, classfile.TVoid, false)
		vmeth.MaxLocals = 1
		venc := bytecode.NewEncoder()
		venc.Emit(bytecode.Instr{Op: bytecode.ReturnVoid})
		vmeth.Code = venc.Bytes()

		m := cb.Method("main", nil, classfile.TVoid, true)
		m.MaxLocals = int(locals)
		m.Code = code
		m.Handlers = []classfile.Handler{{
			StartPC:   uint32(hstart),
			EndPC:     uint32(hend),
			HandlerPC: uint32(hpc),
			ClassIdx:  -1,
		}}
		b.SetEntry("Main", "main")
		prog, err := b.Build()
		if err != nil {
			t.Skip()
		}
		p, err := cfg.BuildProgram(prog)
		if err != nil {
			t.Skip()
		}
		facts := valueflow.Compute(p)
		if facts == nil {
			t.Fatal("Compute returned nil")
		}
		if facts.NumBlocks() != p.NumBlocks() {
			t.Fatalf("facts cover %d blocks, cfg has %d", facts.NumBlocks(), p.NumBlocks())
		}
		st := facts.Stats()
		if st.Reachable+st.Unreachable != st.Blocks {
			t.Fatalf("inconsistent stats: %+v", st)
		}
		if !facts.Top() {
			// A non-degraded table must keep main's entry reachable and only
			// decide successors that the block actually has.
			if entry := p.MethodEntry(prog.Main); entry != nil {
				if bf := facts.Block(entry.ID); bf == nil || !bf.Reachable {
					t.Fatal("main entry block not reachable in non-top table")
				}
			}
			for id := 0; id < facts.NumBlocks(); id++ {
				d := facts.DecidedSucc(cfg.BlockID(id))
				if d == cfg.NoBlock {
					continue
				}
				blk := p.Block(cfg.BlockID(id))
				if blk == nil {
					t.Fatalf("decided successor on unknown block %d", id)
				}
				ok := false
				for _, s := range blk.StaticSuccessors() {
					if s == d {
						ok = true
					}
				}
				if !ok {
					t.Fatalf("block %d decided %v, not a static successor", id, d)
				}
			}
		}
		// The oracle must tolerate arbitrary block sequences, including ones
		// no execution could produce.
		o := valueflow.NewOracle(facts, p)
		var seq []cfg.BlockID
		for id := 0; id < p.NumBlocks() && id < 16; id++ {
			seq = append(seq, cfg.BlockID(id))
		}
		if proofs := o.ProveGuards(seq); len(seq) >= 2 && proofs != nil && len(proofs) != len(seq)-1 {
			t.Fatalf("proofs length %d for %d blocks", len(proofs), len(seq))
		}
	})
}

// seedCode assembles a seed program, resolving each branch target through
// pc, which maps an instruction index to its pc. The first pass learns the
// pcs with every target at 0.
func seedCode(f *testing.F, prog func(pc func(int) int32) []bytecode.Instr) ([]byte, []uint32) {
	f.Helper()
	var code []byte
	var pcs []uint32
	pc := func(i int) int32 {
		if pcs == nil {
			return 0
		}
		return int32(pcs[i])
	}
	for pass := 0; pass < 2; pass++ {
		enc := bytecode.NewEncoder()
		var next []uint32
		for _, in := range prog(pc) {
			at, err := enc.Emit(in)
			if err != nil {
				f.Fatal(err)
			}
			next = append(next, at)
		}
		code, pcs = enc.Bytes(), next
	}
	return code, pcs
}

// handlerOverCond assembles "g = Main.g; if (g == 0) ...; return" with a
// handler (astore 2; return) whose range covers the load and the branch.
func handlerOverCond(f *testing.F) (code []byte, hstart, hend, hpc uint8) {
	f.Helper()
	code, pcs := seedCode(f, func(pc func(int) int32) []bytecode.Instr {
		return []bytecode.Instr{
			{Op: bytecode.GetStatic, A: 1},
			{Op: bytecode.IStore, A: 1},
			{Op: bytecode.ILoad, A: 1}, // handler range starts here
			{Op: bytecode.IfEq, A: pc(6)},
			{Op: bytecode.IConst, A: 1}, // handler range ends here
			{Op: bytecode.IStore, A: 1},
			{Op: bytecode.ReturnVoid},   // join
			{Op: bytecode.AStore, A: 2}, // handler
			{Op: bytecode.ReturnVoid},
		}
	})
	return code, uint8(pcs[2]), uint8(pcs[4]), uint8(pcs[7])
}

// rangeFromMidBlock assembles one straight block that stores 3 and then 5
// into local 1, with a try range that starts at the second store's
// constant, so the handler's first flow comes from inside the block.
func rangeFromMidBlock(f *testing.F) (code []byte, hstart, hend, hpc uint8) {
	f.Helper()
	code, pcs := seedCode(f, func(func(int) int32) []bytecode.Instr {
		return []bytecode.Instr{
			{Op: bytecode.IConst, A: 3},
			{Op: bytecode.IStore, A: 1},
			{Op: bytecode.IConst, A: 5}, // handler range starts here
			{Op: bytecode.IStore, A: 1},
			{Op: bytecode.GetStatic, A: 1},
			{Op: bytecode.Pop},
			{Op: bytecode.ReturnVoid},
			{Op: bytecode.AStore, A: 2}, // handler; range ends here
			{Op: bytecode.ReturnVoid},
		}
	})
	return code, uint8(pcs[2]), uint8(pcs[7]), uint8(pcs[7])
}

// oneInstrBlocksInTry assembles a conditional whose arms are a lone goto
// and a lone nop, every block covered by one try range.
func oneInstrBlocksInTry(f *testing.F) (code []byte, hstart, hend, hpc uint8) {
	f.Helper()
	code, pcs := seedCode(f, func(pc func(int) int32) []bytecode.Instr {
		return []bytecode.Instr{
			{Op: bytecode.GetStatic, A: 1},
			{Op: bytecode.IfEq, A: pc(3)},
			{Op: bytecode.Goto, A: pc(4)}, // a one-instruction block
			{Op: bytecode.Nop},            // another, split by the next leader
			{Op: bytecode.ReturnVoid},
			{Op: bytecode.AStore, A: 2}, // handler; range ends here
			{Op: bytecode.ReturnVoid},
		}
	})
	return code, uint8(pcs[0]), uint8(pcs[5]), uint8(pcs[5])
}
