package trace_test

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/cfg"
	"repro/internal/core"
	"repro/internal/jasm"
	"repro/internal/minijava"
	"repro/internal/trace"
)

// render prints a fused program one segment per line, "ops… | terminator",
// in a notation close to the source: locals are lN, a result with no
// destination is pushed, SExec prints the op it delegates, blocks go by ID.
func render(p *trace.Program) []string {
	src := func(mode uint8, a, b int32, val int64) string {
		switch mode {
		case trace.SrcLL:
			return fmt.Sprintf("l%d,l%d", a, b)
		case trace.SrcLC:
			return fmt.Sprintf("l%d,%d", a, val)
		case trace.SrcCL:
			return fmt.Sprintf("%d,l%d", val, b)
		}
		return fmt.Sprintf("l%d", a)
	}
	var out []string
	for i := range p.Segs {
		seg := &p.Segs[i]
		var parts []string
		for _, op := range seg.Ops {
			switch op.Kind {
			case trace.SExec:
				parts = append(parts, seg.Block.Instrs[op.A].Op.String())
			case trace.SPushConst:
				parts = append(parts, fmt.Sprintf("push %d", op.Val))
			case trace.SPushLocal:
				parts = append(parts, fmt.Sprintf("push l%d", op.A))
			case trace.SStoreLocal:
				parts = append(parts, fmt.Sprintf("l%d=pop", op.A))
			case trace.SStoreConst:
				parts = append(parts, fmt.Sprintf("l%d=%d", op.A, op.Val))
			case trace.SMove:
				parts = append(parts, fmt.Sprintf("l%d=l%d", op.A, op.B))
			case trace.SIncLocal:
				parts = append(parts, fmt.Sprintf("l%d+=%d", op.A, op.Val))
			case trace.SBin:
				e := fmt.Sprintf("%s(%s)", op.Op, src(op.Mode, op.A, op.B, op.Val))
				if op.Dst >= 0 {
					e = fmt.Sprintf("l%d=%s", op.Dst, e)
				}
				parts = append(parts, e)
			}
		}
		var term string
		switch t := seg.Term; t.Kind {
		case trace.TGeneric:
			term = "generic"
		case trace.TStatic:
			term = fmt.Sprintf("goto %d", t.Static.ID)
		case trace.TPopStatic:
			term = fmt.Sprintf("pop%d goto %d", t.PopN, t.Static.ID)
		case trace.TCondI:
			term = fmt.Sprintf("%s(l%d)", t.Op, t.A)
		case trace.TCondII:
			term = fmt.Sprintf("%s(%s)", t.Op, src(t.Mode, t.A, t.B, t.Val))
		}
		out = append(out, strings.Join(append(parts, "| "+term), " "))
	}
	return out
}

func f64(f float64) int64 { return int64(math.Float64bits(f)) }

// counts is the compiler's optimisation report for one program.
type counts struct{ folded, forwarded, decided, dropped int }

// TestCompileLowering drives trace.Compile over hand-written block paths
// (the scenarios the deleted estimator's tests used, now asserted against
// what the compiler emits) and pins the superinstructions, the lowered
// terminators and the removal counters. path holds global block IDs, which
// the CFG builder hands out densely in method order.
func TestCompileLowering(t *testing.T) {
	const head = ".class Main\n"
	const tail = ".end\n.entry Main main\n"
	for _, tc := range []struct {
		name   string
		src    string
		path   []cfg.BlockID
		proofs []bool
		want   []string
		counts counts
	}{
		{
			name: "constant-folding",
			src: `.method static main ( ) void
.locals 1
    iconst 2 iconst 3 imul istore 0
    iload 0 iconst 1 iadd istore 0
    goto next
next:
    return
.end`,
			path:   []cfg.BlockID{0, 1},
			want:   []string{"l0=6 l0=7 | goto 1", "| generic"},
			counts: counts{folded: 2, forwarded: 1},
		},
		{
			name: "float-folding-and-comparisons",
			src: `.method static main ( ) void
.locals 1
    fconst 2.0 fconst 4.0 fmul fstore 0
    fload 0 fneg fstore 0
    fconst 1.0 fconst 2.0 fcmpl istore 0
    fconst 3.5 f2i istore 0
    iconst 5 i2f fstore 0
    iconst 3 ineg istore 0
    return
.end`,
			path:   []cfg.BlockID{0},
			want:   []string{fmt.Sprintf("l0=%d l0=%d l0=-1 l0=3 l0=%d l0=-3 | generic", f64(8), f64(-8), f64(5))},
			counts: counts{folded: 6, forwarded: 1},
		},
		{
			name: "stack-shuffles",
			src: `.method static main ( ) void
.locals 1
    iconst 2 iconst 3 swap isub istore 0
    iconst 4 dup iadd istore 0
    iconst 1 iconst 2 dup_x1 iadd iadd istore 0
    iconst 9 pop
    return
.end`,
			path:   []cfg.BlockID{0},
			want:   []string{"l0=1 l0=8 l0=5 | generic"},
			counts: counts{folded: 4},
		},
		{
			name: "iinc-known-slot",
			src: `.method static main ( ) void
.locals 2
    iconst 10 istore 0
    iinc 0 5
    iload 0 istore 1
    return
.end`,
			path:   []cfg.BlockID{0},
			want:   []string{"l0=10 l0+=5 l1=15 | generic"},
			counts: counts{forwarded: 1},
		},
		{
			name: "overwritten-store-kept",
			src: `.method static main ( ) void
.locals 1
    iconst 1 istore 0
    iconst 2 istore 0
    return
.end`,
			path: []cfg.BlockID{0},
			want: []string{"l0=1 l0=2 | generic"},
		},
		{
			name: "unknown-conditional",
			src: `.method static main ( ) void
.locals 1
    iload 0
    ifeq done
    iload 0 iconst 3
    if_icmpge done
    iinc 0 1
done:
    return
.end`,
			path: []cfg.BlockID{0, 1, 2, 3},
			want: []string{"| ifeq(l0)", "| if_icmpge(l0,3)", "l0+=1 | goto 3", "| generic"},
		},
		{
			name: "constant-conditional",
			src: `.method static main ( ) void
    iconst 0
    ifeq done
    nop
done:
    return
.end`,
			path:   []cfg.BlockID{0, 2},
			want:   []string{"| goto 2", "| generic"},
			counts: counts{decided: 1},
		},
		{
			// The first guard's operands are still symbolic and vanish with
			// it; the second's is a runtime value the static jump must pop.
			name: "proven-guards-dropped",
			src: `.method static main ( ) void
.locals 2
    iload 0 iload 1
    if_icmplt mid
    nop
mid:
    iload 0 iload 1 iadd
    ifeq done
    nop
done:
    return
.end`,
			path:   []cfg.BlockID{0, 2, 4},
			proofs: []bool{true, true},
			want:   []string{"| goto 2", "iadd(l0,l1) | pop1 goto 4", "| generic"},
			counts: counts{dropped: 2},
		},
		{
			name: "constant-key-switches",
			src: `.method static main ( ) void
.locals 1
    iconst 1
    tableswitch 0 dflt a b
a: goto dflt
b: goto dflt
dflt:
    iload 0
    lookupswitch end 5:end
end:
    return
.end`,
			path:   []cfg.BlockID{0, 2, 3, 4},
			want:   []string{"| goto 2", "| goto 3", "push l0 | generic", "| generic"},
			counts: counts{decided: 1},
		},
		{
			name: "calls-are-barriers",
			src: `.method static main ( ) void
.locals 2
    iconst 5 istore 0
    invokestatic Main.f
    iload 0 istore 1
    return
.end
.method static f ( ) void
    return
.end`,
			path: []cfg.BlockID{0, 2, 1},
			want: []string{"l0=5 | generic", "| generic", "l1=l0 | generic"},
		},
		{
			name: "binop-store-fusion",
			src: `.method static main ( ) void
.locals 3
    iload 0 iload 1 iadd istore 2
    iload 2 iconst 1 isub istore 2
    iconst 7 iload 0 imul
    iload 1 ineg
    iadd istore 0
    return
.end`,
			path: []cfg.BlockID{0},
			want: []string{"l2=iadd(l0,l1) l2=isub(l2,1) imul(7,l0) ineg(l1) iadd l0=pop | generic"},
		},
		{
			// Folding would hide the trap: the division stays live.
			name: "constant-zero-divisor-kept",
			src: `.method static main ( ) void
.locals 1
    iconst 1 iconst 0 idiv istore 0
    return
.end`,
			path: []cfg.BlockID{0},
			want: []string{"push 1 push 0 idiv l0=pop | generic"},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			prog, err := jasm.Assemble(head + tc.src + "\n" + tail)
			if err != nil {
				t.Fatalf("assemble: %v", err)
			}
			pcfg, err := cfg.BuildProgram(prog)
			if err != nil {
				t.Fatalf("cfg: %v", err)
			}
			env := &trace.CompileEnv{Resolve: pcfg.Block, GuardProofs: tc.proofs}
			for _, id := range tc.path {
				env.Blocks = append(env.Blocks, pcfg.Block(id))
			}
			p := trace.Compile(env)
			if p == nil {
				t.Fatal("Compile bailed")
			}
			got := render(p)
			if strings.Join(got, "\n") != strings.Join(tc.want, "\n") {
				t.Errorf("lowered to\n  %s\nwant\n  %s", strings.Join(got, "\n  "), strings.Join(tc.want, "\n  "))
			}
			if c := (counts{p.Folded, p.Forwarded, p.Decided, p.DroppedGuards}); c != tc.counts {
				t.Errorf("counters %+v, want %+v", c, tc.counts)
			}
			if p.Emitted() > p.TotalInstrs {
				t.Errorf("emitted %d ops for %d instructions", p.Emitted(), p.TotalInstrs)
			}
		})
	}
}

// TestCompileBails: a block sequence the compiler cannot resolve yields no
// program (the trace stays on its unfused one), never a partial one.
func TestCompileBails(t *testing.T) {
	prog, err := jasm.Assemble(".class Main\n.method static main ( ) void\n goto l\nl: return\n.end\n.end\n.entry Main main\n")
	if err != nil {
		t.Fatal(err)
	}
	pcfg, err := cfg.BuildProgram(prog)
	if err != nil {
		t.Fatal(err)
	}
	blocks := []*cfg.Block{pcfg.Block(0), pcfg.Block(1)}
	if trace.Compile(&trace.CompileEnv{Blocks: blocks, Resolve: pcfg.Block}) == nil {
		t.Fatal("resolvable sequence bailed")
	}
	for name, env := range map[string]*trace.CompileEnv{
		"nil env":           nil,
		"no blocks":         {Resolve: pcfg.Block},
		"unknown block":     {Blocks: []*cfg.Block{blocks[0], pcfg.Block(999)}, Resolve: pcfg.Block},
		"unresolved target": {Blocks: blocks},
	} {
		if trace.Compile(env) != nil {
			t.Errorf("%s: Compile returned a program", name)
		}
	}
}

// TestCompileRealWorkloadTraces runs a constant-rich MiniJava loop under
// tier 2 and sends every cached trace through the cache's own Compile: the
// loop recomputes 3*4 each iteration, so the counters must show removed
// work, and no program may emit more than it consumed.
func TestCompileRealWorkloadTraces(t *testing.T) {
	prog, err := minijava.Compile(`class Main {
        static void main() {
            int s = 0;
            for (int i = 0; i < 30000; i = i + 1) {
                int twelve = 3 * 4;
                s = s + i % twelve;
            }
            Sys.printlnInt(s);
        }
    }`)
	if err != nil {
		t.Fatal(err)
	}
	pcfg, err := cfg.BuildProgram(prog)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := core.NewSession(prog, pcfg, core.SessionOptions{
		Mode:   core.ModeTrace,
		Config: core.Config{CompileTraces: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Run(); err != nil {
		t.Fatal(err)
	}
	traces := sess.Cache.Traces()
	if len(traces) == 0 {
		t.Fatal("no traces to compile")
	}
	removed := 0
	for _, tr := range traces {
		p := sess.Cache.Compile(tr)
		if p == nil {
			t.Errorf("trace %d did not compile", tr.ID)
			continue
		}
		if p.Emitted() > p.TotalInstrs {
			t.Errorf("trace %d: emitted %d ops for %d instructions:\n  %s",
				tr.ID, p.Emitted(), p.TotalInstrs, strings.Join(render(p), "\n  "))
		}
		removed += p.Folded + p.Forwarded
	}
	if removed == 0 {
		t.Error("no folded op or forwarded load in a constant-rich loop")
	}
}
