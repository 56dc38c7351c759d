package trace_test

import (
	"testing"

	"repro/internal/bytecode"
	"repro/internal/cfg"
	"repro/internal/classfile"
	"repro/internal/trace"
)

// FuzzSuperinstructionFoldNeverPanics feeds arbitrary bytes as the entry
// method's code through the linker and CFG builder, walks a block sequence
// off the entry (revisits allowed — traces are paths, not simple paths), and
// lowers it under fuzzed guard proofs and claimed block-entry constants.
// Compile must never panic — constant folding included — and any Program it
// accepts must satisfy the structural invariants the dispatch engine relies
// on. Inputs the linker or CFG builder reject are skipped; everything they
// accept must be lowerable or cleanly bailed on.
func FuzzSuperinstructionFoldNeverPanics(f *testing.F) {
	enc := bytecode.NewEncoder()
	for _, in := range []bytecode.Instr{
		{Op: bytecode.IConst, A: 7},
		{Op: bytecode.IStore, A: 2},
		{Op: bytecode.ILoad, A: 2},
		{Op: bytecode.IConst, A: 1},
		{Op: bytecode.ISub},
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
	f.Add(enc.Bytes(), uint16(4), uint16(0xffff), uint64(0x9e3779b97f4a7c15))
	f.Add([]byte{byte(bytecode.ReturnVoid)}, uint16(1), uint16(0), uint64(0))
	f.Add([]byte{0xff, 0x01, 0x02}, uint16(3), uint16(5), uint64(42))

	f.Fuzz(func(t *testing.T, code []byte, locals uint16, guards uint16, seed uint64) {
		b := classfile.NewBuilder()
		cb := b.Class("Main")
		b.MethodRef("Main", "helper", classfile.RefStatic)
		helper := cb.Method("helper", nil, classfile.TInt, true)
		helper.MaxLocals = 1
		henc := bytecode.NewEncoder()
		henc.Emit(bytecode.Instr{Op: bytecode.IConst, A: 3})
		henc.Emit(bytecode.Instr{Op: bytecode.IReturn})
		helper.Code = henc.Bytes()

		m := cb.Method("main", nil, classfile.TVoid, true)
		m.MaxLocals = int(locals)
		m.Code = code
		b.SetEntry("Main", "main")
		prog, err := b.Build()
		if err != nil {
			t.Skip()
		}
		p, err := cfg.BuildProgram(prog)
		if err != nil {
			t.Skip()
		}
		entry := p.MethodEntry(prog.Main)
		if entry == nil {
			t.Skip()
		}

		blocks := []*cfg.Block{entry}
		cur, s := entry, seed
		for len(blocks) < 8 {
			succs := cur.StaticSuccessors()
			if len(succs) == 0 {
				break
			}
			nb := p.Block(succs[int(s%uint64(len(succs)))])
			s = s/uint64(len(succs)) + 1
			if nb == nil {
				break
			}
			blocks = append(blocks, nb)
			cur = nb
		}

		// Guard proofs and entry constants are adversarial claims, not
		// derived facts: the compiler must lower or bail on any combination
		// without inspecting their truth (soundness is the oracle's job).
		env := &trace.CompileEnv{
			Blocks:      blocks,
			Resolve:     p.Block,
			GuardProofs: make([]bool, len(blocks)),
			EntryInts:   make([][]trace.SlotConst, len(blocks)),
			EntryFloats: make([][]trace.SlotBits, len(blocks)),
		}
		for i := range blocks {
			env.GuardProofs[i] = guards&(1<<uint(i)) != 0
			env.EntryInts[i] = []trace.SlotConst{
				{Slot: int32(i) % int32(locals+1), Val: int64(seed) - int64(i)},
			}
			env.EntryFloats[i] = []trace.SlotBits{
				{Slot: int32(i+1) % int32(locals+1), Bits: seed ^ uint64(i)},
			}
		}

		cp := trace.Compile(env)
		if cp == nil {
			return
		}
		if len(cp.Segs) != len(blocks) {
			t.Fatalf("%d segments for %d blocks", len(cp.Segs), len(blocks))
		}
		var instrs int64
		proven := 0
		for i := range cp.Segs {
			seg := &cp.Segs[i]
			if seg.Block != blocks[i] {
				t.Fatalf("segment %d lost its canonical block", i)
			}
			if seg.NInstrs != int64(len(blocks[i].Instrs)) {
				t.Fatalf("segment %d counts %d instrs, block has %d",
					i, seg.NInstrs, len(blocks[i].Instrs))
			}
			instrs += seg.NInstrs
			switch seg.Term.Kind {
			case trace.TStatic:
				if seg.Term.Static == nil {
					t.Fatalf("segment %d: TStatic without target", i)
				}
			case trace.TPopStatic:
				if seg.Term.Static == nil || seg.Term.PopN < 0 {
					t.Fatalf("segment %d: bad TPopStatic %+v", i, seg.Term)
				}
			case trace.TCondI, trace.TCondII:
				if seg.Term.Taken == nil || seg.Term.Fall == nil {
					t.Fatalf("segment %d: conditional without both targets", i)
				}
			case trace.TGeneric:
			default:
				t.Fatalf("segment %d: unknown terminator kind %d", i, seg.Term.Kind)
			}
			if env.GuardProofs[i] {
				proven++
			}
		}
		if cp.TotalInstrs != instrs {
			t.Fatalf("TotalInstrs %d != segment sum %d", cp.TotalInstrs, instrs)
		}
		if cp.DroppedGuards > proven {
			t.Fatalf("dropped %d guards with only %d proven", cp.DroppedGuards, proven)
		}
		if cp.Emitted() > cp.TotalInstrs {
			t.Fatalf("emitted %d ops for %d instructions", cp.Emitted(), cp.TotalInstrs)
		}
	})
}
