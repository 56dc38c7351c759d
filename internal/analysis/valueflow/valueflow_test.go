package valueflow_test

import (
	"testing"

	"repro/internal/analysis/valueflow"
	"repro/internal/bytecode"
	"repro/internal/cfg"
	"repro/internal/classfile"
	"repro/internal/jasm"
)

// asm encodes a straight list of instructions, returning the code and the
// pc of each instruction (for branch targets).
func asm(t *testing.T, ins []bytecode.Instr) ([]byte, []uint32) {
	t.Helper()
	enc := bytecode.NewEncoder()
	pcs := make([]uint32, len(ins))
	for i, in := range ins {
		pc, err := enc.Emit(in)
		if err != nil {
			t.Fatalf("emit %v: %v", in.Op, err)
		}
		pcs[i] = pc
	}
	return enc.Bytes(), pcs
}

// buildMain assembles a single static main method and returns its CFG and
// facts. The instruction stream may use placeholder branch targets that
// patch maps by instruction index.
func buildMain(t *testing.T, maxLocals int, mk func(pcAt func(int) uint32) []bytecode.Instr) (*cfg.ProgramCFG, *valueflow.Facts) {
	t.Helper()
	// Two passes: first with zero targets to learn pcs, then for real.
	var pcs []uint32
	pcAt := func(i int) uint32 {
		if pcs == nil {
			return 0
		}
		return pcs[i]
	}
	_, pcs = asm(t, mk(pcAt))
	code, _ := asm(t, mk(pcAt))

	b := classfile.NewBuilder()
	cb := b.Class("Main")
	b.String("s") // so SConst 0 resolves in tests that use it
	m := cb.Method("main", nil, classfile.TVoid, true)
	m.MaxLocals = maxLocals
	m.Code = code
	b.SetEntry("Main", "main")
	prog, err := b.Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	pcfg, err := cfg.BuildProgram(prog)
	if err != nil {
		t.Fatalf("cfg: %v", err)
	}
	f := valueflow.Compute(pcfg)
	if f.Top() {
		t.Fatalf("analysis degraded to top facts")
	}
	return pcfg, f
}

func blockAt(t *testing.T, p *cfg.ProgramCFG, methodID int, pc uint32) *cfg.Block {
	t.Helper()
	b := p.Methods[methodID].BlockAtPC(pc)
	if b == nil {
		t.Fatalf("no block at pc %d", pc)
	}
	return b
}

func hasIntConst(bf *valueflow.BlockFacts, slot int32, val int64) bool {
	for _, c := range bf.IntConsts {
		if c.Slot == slot && c.Val == val {
			return true
		}
	}
	return false
}

func hasNonNull(bf *valueflow.BlockFacts, slot int32) bool {
	for _, s := range bf.NonNull {
		if s == slot {
			return true
		}
	}
	return false
}

// TestConstantsDecideBranches checks constant propagation, decided
// branches, and SCCP unreachability on a diamond with constant inputs.
func TestConstantsDecideBranches(t *testing.T) {
	const (
		iDead = 7 // IConst 2 (the "equal zero" arm, unreachable)
		iJoin = 9 // ILoad 1
		iRet2 = 12
	)
	p, f := buildMain(t, 2, func(pc func(int) uint32) []bytecode.Instr {
		return []bytecode.Instr{
			/* 0 */ {Op: bytecode.IConst, A: 7},
			/* 1 */ {Op: bytecode.IStore, A: 0},
			/* 2 */ {Op: bytecode.ILoad, A: 0},
			/* 3 */ {Op: bytecode.IfEq, A: int32(pc(iDead))},
			/* 4 */ {Op: bytecode.IConst, A: 1},
			/* 5 */ {Op: bytecode.IStore, A: 1},
			/* 6 */ {Op: bytecode.Goto, A: int32(pc(iJoin))},
			/* 7 */ {Op: bytecode.IConst, A: 2},
			/* 8 */ {Op: bytecode.IStore, A: 1},
			/* 9 */ {Op: bytecode.ILoad, A: 1},
			/* 10 */ {Op: bytecode.IfEq, A: int32(pc(iRet2))},
			/* 11 */ {Op: bytecode.ReturnVoid},
			/* 12 */ {Op: bytecode.ReturnVoid},
		}
	})
	main := p.Program.Main
	_, pcs := asmPCs(t, p, main)

	// The first conditional terminates the entry block (instrs 0..3).
	condB := blockAt(t, p, main.ID, pcs[0])
	if got := f.DecidedSucc(condB.ID); got != condB.FallThrough {
		t.Errorf("first branch: decided %v, want fallthrough %v", got, condB.FallThrough)
	}
	deadB := blockAt(t, p, main.ID, pcs[iDead])
	if f.Block(deadB.ID).Reachable {
		t.Errorf("dead arm marked reachable")
	}
	joinB := blockAt(t, p, main.ID, pcs[iJoin])
	jf := f.Block(joinB.ID)
	if !jf.Reachable {
		t.Fatalf("join block unreachable")
	}
	if !hasIntConst(jf, 0, 7) || !hasIntConst(jf, 1, 1) {
		t.Errorf("join consts = %+v, want slot0=7 slot1=1", jf.IntConsts)
	}
	if got := f.DecidedSucc(joinB.ID); got != joinB.FallThrough {
		t.Errorf("second branch: decided %v, want fallthrough %v", got, joinB.FallThrough)
	}
}

// asmPCs re-derives instruction pcs of a method by decoding its code.
func asmPCs(t *testing.T, p *cfg.ProgramCFG, m *classfile.Method) ([]bytecode.Instr, []uint32) {
	t.Helper()
	ins, err := bytecode.Decode(m.Code)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	pcs := make([]uint32, len(ins))
	for i, in := range ins {
		pcs[i] = in.PC
	}
	return ins, pcs
}

// TestRangeRefinementKillsBoundCheck checks that entering a loop body under
// "i < 10" refines i's range enough to decide a redundant bound check.
func TestRangeRefinementKillsBoundCheck(t *testing.T) {
	const (
		iHead  = 2  // ILoad 0 (loop header)
		iCheck = 7  // redundant IfICmpGe inside the body
		iDead  = 13 // target of the redundant check
		iExit  = 15
	)
	p, f := buildMain(t, 1, func(pc func(int) uint32) []bytecode.Instr {
		return []bytecode.Instr{
			/* 0 */ {Op: bytecode.IConst, A: 0},
			/* 1 */ {Op: bytecode.IStore, A: 0},
			// header: if i >= 10 exit
			/* 2 */ {Op: bytecode.ILoad, A: 0},
			/* 3 */ {Op: bytecode.IConst, A: 10},
			/* 4 */ {Op: bytecode.IfICmpGe, A: int32(pc(iExit))},
			// body: the same check again — now provably not taken
			/* 5 */ {Op: bytecode.ILoad, A: 0},
			/* 6 */ {Op: bytecode.IConst, A: 10},
			/* 7 */ {Op: bytecode.IfICmpGe, A: int32(pc(iDead))},
			/* 8 */ {Op: bytecode.IInc, A: 0, B: 1},
			/* 9 */ {Op: bytecode.Goto, A: int32(pc(iHead))},
			// filler so the dead target exists
			/* 10 */ {Op: bytecode.Nop},
			/* 11 */ {Op: bytecode.Nop},
			/* 12 */ {Op: bytecode.Nop},
			/* 13 */ {Op: bytecode.Nop},
			/* 14 */ {Op: bytecode.ReturnVoid},
			/* 15 */ {Op: bytecode.ReturnVoid},
		}
	})
	main := p.Program.Main
	_, pcs := asmPCs(t, p, main)
	checkB := blockAt(t, p, main.ID, pcs[iCheck-2]) // block starts at ILoad (instr 5)
	if got := f.DecidedSucc(checkB.ID); got != checkB.FallThrough {
		t.Errorf("redundant bound check: decided %v, want fallthrough %v", got, checkB.FallThrough)
	}
	deadB := blockAt(t, p, main.ID, pcs[iDead])
	if f.Block(deadB.ID).Reachable {
		t.Errorf("dead bound-check target marked reachable")
	}
}

// TestNullnessFacts checks null/non-null propagation and decided null
// tests.
func TestNullnessFacts(t *testing.T) {
	const (
		iDead = 5
		iRet  = 7
	)
	p, f := buildMain(t, 1, func(pc func(int) uint32) []bytecode.Instr {
		return []bytecode.Instr{
			/* 0 */ {Op: bytecode.SConst, A: 0},
			/* 1 */ {Op: bytecode.AStore, A: 0},
			/* 2 */ {Op: bytecode.ALoad, A: 0},
			/* 3 */ {Op: bytecode.IfNull, A: int32(pc(iDead))},
			/* 4 */ {Op: bytecode.Goto, A: int32(pc(iRet))},
			/* 5 */ {Op: bytecode.Nop},
			/* 6 */ {Op: bytecode.ReturnVoid},
			/* 7 */ {Op: bytecode.ReturnVoid},
		}
	})
	// Need the string pool entry SConst references.
	main := p.Program.Main
	_, pcs := asmPCs(t, p, main)
	// The null test terminates the entry block (instrs 0..3); the non-null
	// fact is an entry claim, so it shows up at the surviving successor.
	testB := blockAt(t, p, main.ID, pcs[0])
	liveB := blockAt(t, p, main.ID, pcs[4])
	if lf := f.Block(liveB.ID); !hasNonNull(lf, 0) {
		t.Errorf("slot 0 not proven non-null at live arm: %+v", lf.NonNull)
	}
	if got := f.DecidedSucc(testB.ID); got != testB.FallThrough {
		t.Errorf("null test: decided %v, want fallthrough %v", got, testB.FallThrough)
	}
	deadB := blockAt(t, p, main.ID, pcs[iDead])
	if f.Block(deadB.ID).Reachable {
		t.Errorf("null arm marked reachable")
	}
}

// TestInterproceduralReturnConst checks that a constant returned by a
// static helper propagates into the caller and decides its branch.
func TestInterproceduralReturnConst(t *testing.T) {
	b := classfile.NewBuilder()
	cb := b.Class("Main")
	refIdx := b.MethodRef("Main", "f", classfile.RefStatic)

	helper := cb.Method("f", nil, classfile.TInt, true)
	hcode, _ := asm(t, []bytecode.Instr{
		{Op: bytecode.IConst, A: 42},
		{Op: bytecode.IReturn},
	})
	helper.Code = hcode
	helper.MaxLocals = 0

	m := cb.Method("main", nil, classfile.TVoid, true)
	mk := func(deadPC, retPC uint32) []bytecode.Instr {
		return []bytecode.Instr{
			/* 0 */ {Op: bytecode.InvokeStatic, A: int32(refIdx)},
			/* 1 */ {Op: bytecode.IStore, A: 0},
			/* 2 */ {Op: bytecode.ILoad, A: 0},
			/* 3 */ {Op: bytecode.IfEq, A: int32(deadPC)},
			/* 4 */ {Op: bytecode.Goto, A: int32(retPC)},
			/* 5 */ {Op: bytecode.Nop},
			/* 6 */ {Op: bytecode.ReturnVoid},
			/* 7 */ {Op: bytecode.ReturnVoid},
		}
	}
	_, pcs := asm(t, mk(0, 0))
	code, _ := asm(t, mk(pcs[5], pcs[7]))
	m.Code = code
	m.MaxLocals = 1
	b.SetEntry("Main", "main")
	prog, err := b.Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	pcfg, err := cfg.BuildProgram(prog)
	if err != nil {
		t.Fatalf("cfg: %v", err)
	}
	f := valueflow.Compute(pcfg)
	if f.Top() {
		t.Fatalf("analysis degraded to top facts")
	}
	main := prog.Main
	// The conditional terminates the call's return-site block (instrs 1..3).
	// At its entry the returned 42 sits on the stack; the local-slot fact
	// materializes at the surviving successor.
	condB := blockAt(t, pcfg, main.ID, pcs[1])
	cf := f.Block(condB.ID)
	foundStack := false
	for _, c := range cf.StackConsts {
		if c.Idx == 0 && c.Val == 42 {
			foundStack = true
		}
	}
	if !foundStack {
		t.Errorf("callee return const not on stack at return site: %+v", cf.StackConsts)
	}
	liveB := blockAt(t, pcfg, main.ID, pcs[4])
	if lf := f.Block(liveB.ID); !hasIntConst(lf, 0, 42) {
		t.Errorf("callee return const not propagated to local: %+v", lf.IntConsts)
	}
	if got := f.DecidedSucc(condB.ID); got != condB.FallThrough {
		t.Errorf("branch on returned const: decided %v, want fallthrough %v", got, condB.FallThrough)
	}
	deadB := blockAt(t, pcfg, main.ID, pcs[5])
	if f.Block(deadB.ID).Reachable {
		t.Errorf("dead arm marked reachable")
	}

	// Oracle: a trace through the decided branch has every guard proven.
	o := valueflow.NewOracle(f, pcfg)
	entryB := blockAt(t, pcfg, main.ID, pcs[0])
	helperB := pcfg.MethodEntry(helper)
	retSiteB := blockAt(t, pcfg, main.ID, pcs[1])
	gotoB := blockAt(t, pcfg, main.ID, pcs[4])
	// entry -> helper (static call), helper returns (unprovable), then
	// cond -> goto target decided.
	proofs := o.ProveGuards([]cfg.BlockID{entryB.ID, helperB.ID, retSiteB.ID, gotoB.ID})
	if len(proofs) != 3 {
		t.Fatalf("proofs = %v, want length 3", proofs)
	}
	if !proofs[0] {
		t.Errorf("static call entry not proven")
	}
	if proofs[1] {
		t.Errorf("return position unexpectedly proven")
	}
	if !proofs[2] {
		t.Errorf("decided branch position not proven")
	}
}

// TestUnlinkedDegradesToTop checks the claim-free fallback paths.
func TestUnlinkedDegradesToTop(t *testing.T) {
	if f := valueflow.Compute(nil); !f.Top() {
		t.Errorf("nil cfg: not top")
	}
	st := valueflow.Compute(nil).Stats()
	if !st.Top {
		t.Errorf("stats of top table not marked top")
	}
}

// handlerEntryFacts assembles a jasm program, computes its facts and
// returns the entry facts of each of main's exception handlers, in
// exception-table order.
func handlerEntryFacts(t *testing.T, src string) []*valueflow.BlockFacts {
	t.Helper()
	prog, err := jasm.Assemble(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	p, err := cfg.BuildProgram(prog)
	if err != nil {
		t.Fatalf("cfg: %v", err)
	}
	f := valueflow.Compute(p)
	if f.Top() {
		t.Fatalf("analysis degraded to top facts")
	}
	var out []*valueflow.BlockFacts
	for _, h := range prog.Main.Handlers {
		bf := f.Block(blockAt(t, p, prog.Main.ID, h.HandlerPC).ID)
		if !bf.Reachable {
			t.Fatalf("handler at pc %d proven unreachable", h.HandlerPC)
		}
		out = append(out, bf)
	}
	return out
}

// TestHandlerEdgeSeesStoreInsideBlock covers a try range over one block
// whose entry holds local 0 = 3 and which stores 5 into it before it can
// throw. The handler is entered with either value, so its entry must not
// claim local 0 is constant.
func TestHandlerEdgeSeesStoreInsideBlock(t *testing.T) {
	bf := handlerEntryFacts(t, `
.entry Main main
.class Main
.method static main ( ) void
    .locals 2
    iconst 3
    istore 0
    goto T
T:
    iconst 5
    istore 0
    new Main
    throw
H:
    astore 1
    return
    .catch * from T to H using H
.end
.end
`)[0]
	for _, c := range bf.IntConsts {
		if c.Slot == 0 {
			t.Errorf("handler entry claims local 0 = %d; the block throws with 3 and with 5", c.Val)
		}
	}
}

// TestHandlerEdgeKeepsConstantRestoredInsideBlock is the same block storing
// 3 back: every covered instruction sees local 0 = 3, so the handler entry
// must keep the claim.
func TestHandlerEdgeKeepsConstantRestoredInsideBlock(t *testing.T) {
	bf := handlerEntryFacts(t, `
.entry Main main
.class Main
.method static main ( ) void
    .locals 2
    iconst 3
    istore 0
    goto T
T:
    iconst 3
    istore 0
    new Main
    throw
H:
    astore 1
    return
    .catch * from T to H using H
.end
.end
`)[0]
	if !hasIntConst(bf, 0, 3) {
		t.Errorf("handler entry consts = %+v, want local 0 = 3", bf.IntConsts)
	}
}

// TestHandlerEdgeRangeStartsMidBlock covers two try ranges over one block:
// the first covers all of it, the second starts at an instruction inside
// it where the locals are the same as at the block's entry. The second
// handler is reached only from that instruction on, and must be entered.
func TestHandlerEdgeRangeStartsMidBlock(t *testing.T) {
	hs := handlerEntryFacts(t, `
.entry Main main
.class Main
.method static main ( ) void
    .locals 2
    iconst 3
    istore 0
    goto T
T:
    iconst 4
    pop
M:
    nop
    new Main
    throw
HA:
    astore 1
    return
HB:
    astore 1
    return
    .catch * from T to HA using HA
    .catch * from M to HA using HB
.end
.end
`)
	for i, bf := range hs {
		if !hasIntConst(bf, 0, 3) {
			t.Errorf("handler %d entry consts = %+v, want local 0 = 3", i, bf.IntConsts)
		}
	}
}
