package cfg_test

import (
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/bytecode"
	"repro/internal/cfg"
	"repro/internal/classfile"
	"repro/internal/jasm"
	"repro/internal/minijava"
	"repro/internal/progen"
)

func build(t *testing.T, jasmSrc string) *cfg.ProgramCFG {
	t.Helper()
	prog, err := jasm.Assemble(jasmSrc)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	pcfg, err := cfg.BuildProgram(prog)
	if err != nil {
		t.Fatalf("cfg: %v", err)
	}
	return pcfg
}

const loopSrc = `
.class Main
.method static main ( ) void
.locals 1
    iconst 0
    istore 0
loop:
    iload 0
    iconst 10
    if_icmpge done
    iinc 0 1
    goto loop
done:
    return
.end
.end
.entry Main main
`

func TestBlockDiscoveryLoop(t *testing.T) {
	pcfg := build(t, loopSrc)
	mc := pcfg.Methods[pcfg.Program.Main.ID]
	if mc == nil {
		t.Fatal("no CFG for main")
	}
	// Expected blocks: [entry: iconst/istore], [loop header: loads + cond],
	// [body: iinc/goto], [done: return].
	if len(mc.Blocks) != 4 {
		t.Fatalf("block count = %d, want 4:\n%s", len(mc.Blocks), mc.Dump())
	}
	entry, header, body, done := mc.Blocks[0], mc.Blocks[1], mc.Blocks[2], mc.Blocks[3]
	if mc.Entry != entry {
		t.Error("entry is not the first block")
	}
	if entry.Kind != bytecode.FlowNext || entry.FallThrough != header.ID {
		t.Errorf("entry block: kind %v fallthrough %d", entry.Kind, entry.FallThrough)
	}
	if header.Kind != bytecode.FlowCond || header.Taken != done.ID || header.FallThrough != body.ID {
		t.Errorf("header block: %v taken=%d ft=%d", header.Kind, header.Taken, header.FallThrough)
	}
	if body.Kind != bytecode.FlowGoto || body.Taken != header.ID {
		t.Errorf("body block: %v taken=%d", body.Kind, body.Taken)
	}
	if done.Kind != bytecode.FlowReturn || len(done.StaticSuccessors()) != 0 {
		t.Errorf("done block: %v succ=%v", done.Kind, done.StaticSuccessors())
	}
}

func TestCallsTerminateBlocks(t *testing.T) {
	pcfg := build(t, `
.class Main
.method static f ( ) void
    return
.end
.method static main ( ) void
    invokestatic Main.f
    invokestatic Main.f
    return
.end
.end
.entry Main main
`)
	mc := pcfg.Methods[pcfg.Program.Main.ID]
	if len(mc.Blocks) != 3 {
		t.Fatalf("blocks = %d, want 3 (each call ends a block):\n%s", len(mc.Blocks), mc.Dump())
	}
	b0 := mc.Blocks[0]
	if b0.Kind != bytecode.FlowCall {
		t.Errorf("first block kind = %v, want call", b0.Kind)
	}
	if b0.FallThrough != mc.Blocks[1].ID {
		t.Error("call return site not recorded as fallthrough")
	}
}

func TestSwitchSuccessors(t *testing.T) {
	pcfg := build(t, `
.class Main
.method static main ( ) void
.locals 1
    iconst 0
    istore 0
    iload 0
    tableswitch 0 dflt a b
a:
    return
b:
    return
dflt:
    return
.end
.end
.entry Main main
`)
	mc := pcfg.Methods[pcfg.Program.Main.ID]
	sw := mc.Blocks[0]
	if sw.Kind != bytecode.FlowSwitch {
		t.Fatalf("kind = %v", sw.Kind)
	}
	if len(sw.SwitchTargets) != 2 {
		t.Fatalf("targets = %d", len(sw.SwitchTargets))
	}
	if sw.SwitchDefault == cfg.NoBlock {
		t.Fatal("no default target")
	}
	succ := sw.StaticSuccessors()
	if len(succ) != 3 {
		t.Errorf("successors = %v, want 3 distinct", succ)
	}
}

func TestGlobalBlockIDsAreDense(t *testing.T) {
	pcfg := build(t, loopSrc)
	for i, b := range pcfg.Blocks {
		if int(b.ID) != i {
			t.Errorf("block %d has ID %d", i, b.ID)
		}
		if pcfg.Block(b.ID) != b {
			t.Errorf("Block(%d) did not return the same block", b.ID)
		}
	}
	if pcfg.Block(cfg.BlockID(len(pcfg.Blocks))) != nil {
		t.Error("out-of-range lookup returned a block")
	}
	if pcfg.Block(cfg.NoBlock) != nil {
		t.Error("NoBlock lookup returned a block")
	}
}

func TestUnlinkedProgramRejected(t *testing.T) {
	prog, err := jasm.AssembleUnlinked(loopSrc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cfg.BuildProgram(prog); err == nil {
		t.Error("BuildProgram accepted an unlinked program")
	}
}

func TestNativeMethodsHaveNoCFG(t *testing.T) {
	pcfg := build(t, `
.class Main
.native static p ( int ) void println_int
.method static main ( ) void
    iconst 1
    invokestatic Main.p
    return
.end
.end
.entry Main main
`)
	for _, m := range pcfg.Program.Methods {
		if m.Native != "" {
			if pcfg.Methods[m.ID] != nil {
				t.Errorf("native method %s has a CFG", m.QName())
			}
			if pcfg.MethodEntry(m) != nil {
				t.Errorf("native method %s has an entry block", m.QName())
			}
		}
	}
}

// mjPrograms are MiniJava sources used for the structural property test.
var mjPrograms = []string{
	`class Main { static void main() { int x = 0; for (int i = 0; i < 10; i = i + 1) { x = x + i; } Sys.printlnInt(x); } }`,
	`class Main {
        static int f(int n) { if (n < 2) { return n; } return f(n-1) + f(n-2); }
        static void main() { Sys.printlnInt(f(12)); }
    }`,
	`class A { int v() { return 1; } }
     class B extends A { int v() { return 2; } }
     class Main { static void main() {
        A[] xs = new A[4];
        for (int i = 0; i < 4; i = i + 1) { if (i % 2 == 0) { xs[i] = new A(); } else { xs[i] = new B(); } }
        int s = 0;
        for (int i = 0; i < 4; i = i + 1) { s = s + xs[i].v(); }
        Sys.printlnInt(s);
     } }`,
}

// TestPropertyBlocksPartitionMethods: for each compiled method, the blocks
// tile the instruction sequence exactly, every non-final instruction of a
// block is a non-terminator, and every static successor edge lands on a
// block leader in the same method. The tiling is the method's one flat
// array: each block's Instrs is mc.Instrs at its offset with no spare
// capacity, BlockAtPC finds exactly the block starts, and Leaders marks
// exactly them.
func TestPropertyBlocksPartitionMethods(t *testing.T) {
	for i, src := range mjPrograms {
		prog, err := minijava.Compile(src)
		if err != nil {
			t.Fatalf("program %d: %v", i, err)
		}
		pcfg, err := cfg.BuildProgram(prog)
		if err != nil {
			t.Fatalf("program %d: %v", i, err)
		}
		for _, mc := range pcfg.Methods {
			if mc == nil {
				continue
			}
			ins, err := bytecode.Decode(mc.Method.Code)
			if err != nil {
				t.Fatal(err)
			}
			var rebuilt []bytecode.Instr
			for _, b := range mc.Blocks {
				off := len(rebuilt)
				if off+len(b.Instrs) > len(mc.Instrs) || &b.Instrs[0] != &mc.Instrs[off] || cap(b.Instrs) != len(b.Instrs) {
					t.Errorf("%s: Instrs is not mc.Instrs[%d:%d:%d]", b, off, off+len(b.Instrs), off+len(b.Instrs))
				}
				if len(b.Instrs) > 1 && mc.BlockAtPC(b.Instrs[1].PC) != nil {
					t.Errorf("%s: BlockAtPC finds a block at mid-block pc %d", b, b.Instrs[1].PC)
				}
				for j, in := range b.Instrs {
					rebuilt = append(rebuilt, in)
					if j < len(b.Instrs)-1 && in.Op.IsTerminator() {
						t.Errorf("%s: terminator %s mid-block", b, in.Op)
					}
				}
				for _, s := range b.StaticSuccessors() {
					sb := pcfg.Block(s)
					if sb == nil {
						t.Errorf("%s: successor %d not found", b, s)
						continue
					}
					if sb.Method != mc.Method {
						t.Errorf("%s: static successor in another method", b)
					}
					if mc.BlockAtPC(sb.StartPC()) != sb {
						t.Errorf("%s: successor %v is not a leader", b, sb)
					}
				}
			}
			if len(rebuilt) != len(ins) || len(mc.Instrs) != len(ins) {
				t.Errorf("%s: blocks contain %d instrs, mc.Instrs %d, method has %d", mc.Method.QName(), len(rebuilt), len(mc.Instrs), len(ins))
				continue
			}
			for j := range ins {
				if !rebuilt[j].Equal(ins[j]) || rebuilt[j].PC != ins[j].PC || !mc.Instrs[j].Equal(ins[j]) {
					t.Errorf("%s: instruction %d differs in block partition", mc.Method.QName(), j)
				}
			}
			end := uint32(len(mc.Method.Code))
			if mc.BlockAtPC(end) != nil || mc.BlockAtPC(end+1) != nil {
				t.Errorf("%s: BlockAtPC finds a block at or past the code's end", mc.Method.QName())
			}
			leaders := classfile.Leaders(mc.Method, mc.Instrs)
			for pc := uint32(0); pc < end; pc++ {
				if leaders[pc] != (mc.BlockAtPC(pc) != nil) {
					t.Errorf("%s: Leaders[%d] = %t, but a block starts there: %t", mc.Method.QName(), pc, leaders[pc], !leaders[pc])
				}
			}
		}
	}
}

// TestPropertyEveryBlockReachableOrDead: quick structural check that entry
// block index is 0 and block indexes are consistent.
func TestPropertyBlockIndexes(t *testing.T) {
	f := func(n uint8) bool {
		// Generate a chain of if/else statements; depth bounded.
		depth := int(n%6) + 1
		var sb strings.Builder
		sb.WriteString("class Main { static void main() { int x = 0;\n")
		for i := 0; i < depth; i++ {
			sb.WriteString("if (x % 2 == 0) { x = x + 1; } else { x = x + 2; }\n")
		}
		sb.WriteString("Sys.printlnInt(x); } }")
		prog, err := minijava.Compile(sb.String())
		if err != nil {
			return false
		}
		pcfg, err := cfg.BuildProgram(prog)
		if err != nil {
			return false
		}
		for _, mc := range pcfg.Methods {
			if mc == nil {
				continue
			}
			if mc.Entry.Index != 0 {
				return false
			}
			for i, b := range mc.Blocks {
				if b.Index != i {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestDumpRendersBlocks(t *testing.T) {
	pcfg := build(t, loopSrc)
	mc := pcfg.Methods[pcfg.Program.Main.ID]
	dump := mc.Dump()
	if !strings.Contains(dump, "block 0") || !strings.Contains(dump, "goto") {
		t.Errorf("dump missing content:\n%s", dump)
	}
}

func TestHandlerBlocksAreLeaders(t *testing.T) {
	pcfg := build(t, `
.class Boom
.end
.class Main
.method static main ( ) void
a:
    new Boom throw
b:
handler:
    pop
    return
.catch * from a to b using handler
.end
.end
.entry Main main
`)
	mc := pcfg.Methods[pcfg.Program.Main.ID]
	// The throw block has no static successors; the handler starts a block.
	var throwBlock, handlerBlock *cfg.Block
	for _, b := range mc.Blocks {
		if b.Kind == bytecode.FlowThrow {
			throwBlock = b
		}
	}
	if throwBlock == nil {
		t.Fatal("no throw block found")
	}
	if len(throwBlock.StaticSuccessors()) != 0 {
		t.Errorf("throw block has static successors: %v", throwBlock.StaticSuccessors())
	}
	h := pcfg.Program.Main.Handlers[0]
	handlerBlock = mc.BlockAtPC(h.HandlerPC)
	if handlerBlock == nil {
		t.Fatal("handler pc is not a block leader")
	}
}

// TestSwitchSucc: the analyses' one successor selector agrees with the
// interpreter's dispatch on table and lookup switches, and refuses — never
// guesses or indexes out of range — on a non-switch or a target table
// shorter than the key list.
// TestCodeShortenedBelowHandler: code cut after link to end before a
// handler's pc still builds; the handler simply starts no block.
func TestCodeShortenedBelowHandler(t *testing.T) {
	prog, err := jasm.Assemble(`
.class Main
.method static main ( ) void
a:
    return
b:
    iconst 7
    pop
handler:
    pop
    return
.catch * from a to b using handler
.end
.end
.entry Main main
`)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	m := prog.Main
	h := m.Handlers[0]
	m.Code = m.Code[:h.EndPC]
	if int(h.HandlerPC) <= len(m.Code) {
		t.Fatalf("handler pc %d is not past the shortened code (%d bytes)", h.HandlerPC, len(m.Code))
	}
	pcfg, err := cfg.BuildProgram(prog)
	if err != nil {
		t.Fatalf("cfg: %v", err)
	}
	mc := pcfg.Methods[m.ID]
	if mc.BlockAtPC(h.HandlerPC) != nil || len(mc.HandlerEntries()) != 0 {
		t.Errorf("a block starts at the cut-off handler pc %d:\n%s", h.HandlerPC, mc.Dump())
	}
}

func TestSwitchSucc(t *testing.T) {
	pcfg := build(t, `
.class Main
.method static main ( ) void
.locals 1
    iconst 0
    istore 0
    iload 0
    tableswitch 3 dflt a b
a:
    iload 0
    lookupswitch dflt -1:a 7:b
b:
    return
dflt:
    return
.end
.end
.entry Main main
`)
	blocks := pcfg.Methods[pcfg.Program.Main.ID].Blocks
	table, lookup, b, dflt := blocks[0], blocks[1], blocks[2].ID, blocks[3].ID
	for _, tc := range []struct {
		sw   *cfg.Block
		key  int64
		want cfg.BlockID
	}{
		{table, 3, lookup.ID}, {table, 4, b}, {table, 2, dflt}, {table, 5, dflt}, {table, -1 << 40, dflt},
		{lookup, -1, lookup.ID}, {lookup, 7, b}, {lookup, 0, dflt}, {lookup, 7 + 1<<32, dflt},
	} {
		if got, ok := tc.sw.SwitchSucc(tc.sw.Terminator(), tc.key); !ok || got != tc.want {
			t.Errorf("%v key %d: successor %d ok=%v, want %d", tc.sw.Terminator().Op, tc.key, got, ok, tc.want)
		}
	}

	short := *lookup
	short.SwitchTargets = short.SwitchTargets[:1]
	if _, ok := short.SwitchSucc(short.Terminator(), 7); ok {
		t.Error("lookup switch with a truncated target table selected a successor")
	}
	if _, ok := blocks[2].SwitchSucc(blocks[2].Terminator(), 0); ok {
		t.Error("a return terminator selected a switch successor")
	}
}

func TestSwitchSuccessorsDeduplicated(t *testing.T) {
	// A switch whose default and every arm share one target must report a
	// single deduplicated static successor; partially shared arms dedup to
	// the distinct set.
	pcfg := build(t, `
.class Main
.method static degenerate ( int ) void
    iload 0
    tableswitch 0 s s s s
s:
    return
.end
.method static shared ( int ) void
    iload 0
    lookupswitch d 1:a 2:a 3:b
a:
    return
b:
    return
d:
    return
.end
.method static main ( ) void
    return
.end
.end
.entry Main main
`)
	var degen, shared *cfg.MethodCFG
	for _, m := range pcfg.Program.Methods {
		switch m.Name {
		case "degenerate":
			degen = pcfg.Methods[m.ID]
		case "shared":
			shared = pcfg.Methods[m.ID]
		}
	}
	dsw := degen.Entry
	if dsw.Kind != bytecode.FlowSwitch {
		t.Fatalf("degenerate entry kind = %v", dsw.Kind)
	}
	if len(dsw.SwitchTargets) != 3 {
		t.Fatalf("degenerate switch targets = %d, want 3", len(dsw.SwitchTargets))
	}
	if succ := dsw.StaticSuccessors(); len(succ) != 1 {
		t.Errorf("degenerate successors = %v, want 1 after dedup", succ)
	}
	ssw := shared.Entry
	if ssw.Kind != bytecode.FlowSwitch {
		t.Fatalf("shared entry kind = %v", ssw.Kind)
	}
	if succ := ssw.StaticSuccessors(); len(succ) != 3 {
		t.Errorf("shared successors = %v, want 3 distinct (a, b, d)", succ)
	}
}

func TestStaticSuccessorsExcludeHandlerEdges(t *testing.T) {
	// Exception edges are dynamic: a protected block never lists its
	// handler among StaticSuccessors, even though the handler entry is
	// reachable at runtime; HandlerEntries exposes it instead.
	pcfg := build(t, `
.class Boom
.end
.class Main
.method static main ( ) void
    .locals 1
a:
    iconst 1
    istore 0
    goto done
b:
handler:
    astore 0
done:
    return
.catch Boom from a to b using handler
.end
.end
.entry Main main
`)
	mc := pcfg.Methods[pcfg.Program.Main.ID]
	h := pcfg.Program.Main.Handlers[0]
	handlerBlock := mc.BlockAtPC(h.HandlerPC)
	if handlerBlock == nil {
		t.Fatal("handler pc is not a block leader")
	}
	for _, b := range mc.Blocks {
		if b == handlerBlock {
			continue
		}
		covered := false
		for _, in := range b.Instrs {
			if h.Covers(in.PC) {
				covered = true
			}
		}
		if !covered {
			continue
		}
		for _, s := range b.StaticSuccessors() {
			if s == handlerBlock.ID {
				t.Errorf("block %v lists handler %v as a static successor", b, handlerBlock)
			}
		}
	}
	entries := mc.HandlerEntries()
	if len(entries) != 1 || entries[0] != handlerBlock {
		t.Fatalf("HandlerEntries = %v, want [%v]", entries, handlerBlock)
	}
}

func TestHandlerEntriesDeduplicated(t *testing.T) {
	// Two table entries sharing one handler block yield a single entry.
	pcfg := build(t, `
.class Boom
.end
.class Main
.method static main ( ) void
    .locals 1
a:
    iconst 1
    istore 0
b:
    iconst 2
    istore 0
    goto done
c:
handler:
    astore 0
done:
    return
.catch Boom from a to b using handler
.catch * from b to c using handler
.end
.end
.entry Main main
`)
	mc := pcfg.Methods[pcfg.Program.Main.ID]
	if got := mc.HandlerEntries(); len(got) != 1 {
		t.Fatalf("HandlerEntries = %v, want exactly 1 deduplicated entry", got)
	}
}

// BenchmarkBuildProgram builds the CFGs of the cold band, the source-size
// band of the cold-tenants benchmark workload: the first 200 progen
// programs from seed 1 with 6–8.5 KB of source. One op is one pass. It also
// reports the heap one program's CFG retains, measured after a collection.
func BenchmarkBuildProgram(b *testing.B) {
	var progs []*classfile.Program
	for seed := int64(1); len(progs) < 200; seed++ {
		src := progen.Generate(seed, progen.Config{})
		if len(src) < 6000 || len(src) > 8500 {
			continue
		}
		prog, err := minijava.Compile(src)
		if err != nil {
			b.Fatalf("progen seed %d: %v", seed, err)
		}
		progs = append(progs, prog)
	}
	built := make([]*cfg.ProgramCFG, len(progs))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, prog := range progs {
			p, err := cfg.BuildProgram(prog)
			if err != nil {
				b.Fatal(err)
			}
			built[j] = p
		}
	}
	b.StopTimer()
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	held := int64(ms.HeapAlloc)
	clear(built)
	runtime.GC()
	runtime.ReadMemStats(&ms)
	held -= int64(ms.HeapAlloc)
	runtime.KeepAlive(progs) // the programs stay live; only the CFGs count
	b.ReportMetric(float64(held)/1024/float64(len(progs)), "retained-KB/program")
}
