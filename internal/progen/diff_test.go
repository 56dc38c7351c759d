package progen_test

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/bytecode"
	"repro/internal/cfg"
	"repro/internal/classfile"
	"repro/internal/core"
	"repro/internal/jasm"
	"repro/internal/minijava"
	"repro/internal/opt"
	"repro/internal/profile"
	"repro/internal/progen"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/vm"
)

// runUnder executes a compiled program under one mode and returns output.
func runUnder(t *testing.T, prog *classfile.Program, pcfg *cfg.ProgramCFG, mode core.Mode) string {
	t.Helper()
	out, _ := runWith(t, prog, pcfg, mode, core.Config{})
	return out
}

// runWith is runUnder with a trace-cache configuration, also returning the
// run's counters.
func runWith(t *testing.T, prog *classfile.Program, pcfg *cfg.ProgramCFG, mode core.Mode, conf core.Config) (string, stats.Counters) {
	t.Helper()
	var out bytes.Buffer
	s, err := core.NewSession(prog, pcfg, core.SessionOptions{
		Mode:     mode,
		Config:   conf,
		Out:      &out,
		MaxSteps: 100_000_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatalf("mode %s: %v", mode, err)
	}
	return out.String(), s.Counters.Snapshot()
}

// TestDifferentialEnginesAndOptimizer is the pipeline's differential
// tester: for each random program, every engine and the optimized build
// must print exactly the same thing.
func TestDifferentialEnginesAndOptimizer(t *testing.T) {
	seeds := 60
	if testing.Short() {
		seeds = 10
	}
	modes := []core.Mode{core.ModePlain, core.ModeInstr, core.ModeProfile, core.ModeTrace, core.ModeTraceDeploy}
	var fusedDispatches int64
	for seed := int64(0); seed < int64(seeds); seed++ {
		src := progen.Generate(seed, progen.Config{})
		prog, err := minijava.Compile(src)
		if err != nil {
			t.Fatalf("seed %d: compile failed: %v\nprogram:\n%s", seed, err, src)
		}
		pcfg, err := cfg.BuildProgram(prog)
		if err != nil {
			t.Fatalf("seed %d: cfg failed: %v", seed, err)
		}

		want, plain := runWith(t, prog, pcfg, core.ModePlain, core.Config{})
		for _, mode := range modes[1:] {
			if got := runUnder(t, prog, pcfg, mode); got != want {
				t.Errorf("seed %d: mode %s diverged:\nwant %q\ngot  %q\nprogram:\n%s",
					seed, mode, want, got, src)
			}
		}

		// Both forms of trace execution — every trace on its unfused
		// program, and every trace fused on its first re-entry — must do
		// exactly the work of block dispatch, not just print the same.
		for _, leg := range []struct {
			name string
			conf core.Config
		}{
			{"unfused", core.Config{}},
			{"fused", core.Config{CompileTraces: true, TierUpDispatches: 1}},
		} {
			got, c := runWith(t, prog, pcfg, core.ModeTrace, leg.conf)
			if got != want {
				t.Errorf("seed %d: %s traces diverged:\nwant %q\ngot  %q\nprogram:\n%s",
					seed, leg.name, want, got, src)
			}
			if c.Instrs != plain.Instrs || c.BlockDispatches != plain.BlockDispatches || c.MethodCalls != plain.MethodCalls {
				t.Errorf("seed %d: %s traces did different work: instrs %d, blocks %d, calls %d; plain %d, %d, %d\nprogram:\n%s",
					seed, leg.name, c.Instrs, c.BlockDispatches, c.MethodCalls,
					plain.Instrs, plain.BlockDispatches, plain.MethodCalls, src)
			}
			fusedDispatches += c.CompiledDispatches
		}

		// Optimized build (fresh compile so the unoptimized runs above are
		// untouched).
		oprog, err := minijava.Compile(src)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := opt.Program(oprog); err != nil {
			t.Fatalf("seed %d: optimizer failed: %v\nprogram:\n%s", seed, err, src)
		}
		ocfg, err := cfg.BuildProgram(oprog)
		if err != nil {
			t.Fatalf("seed %d: cfg of optimized program failed: %v", seed, err)
		}
		if got := runUnder(t, oprog, ocfg, core.ModePlain); got != want {
			t.Errorf("seed %d: optimizer diverged:\nwant %q\ngot  %q\nprogram:\n%s",
				seed, want, got, src)
		}
	}
	if fusedDispatches == 0 {
		t.Errorf("no fused program was dispatched across %d seeds; the fused leg is vacuous", seeds)
	}
}

func TestGeneratorDeterministic(t *testing.T) {
	a := progen.Generate(7, progen.Config{})
	b := progen.Generate(7, progen.Config{})
	if a != b {
		t.Error("same seed produced different programs")
	}
	c := progen.Generate(8, progen.Config{})
	if a == c {
		t.Error("different seeds produced identical programs")
	}
}

func TestGeneratorProgramsCompile(t *testing.T) {
	for seed := int64(100); seed < 140; seed++ {
		src := progen.Generate(seed, progen.Config{Funcs: 5, MaxDepth: 4})
		if _, err := minijava.Compile(src); err != nil {
			t.Errorf("seed %d: %v\nprogram:\n%s", seed, err, src)
		}
	}
}

// Edge operands of the arithmetic, conversion and compare opcodes: the
// values where wrapping, shift masking, the MinInt64 / -1 rule, NaN ordering
// and the f2i range rule live.
var (
	edgeInts   = []int64{0, 1, -1, 63, 64, math.MinInt64, math.MaxInt64}
	edgeFloats = []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), 1e300, -1e300, 1 << 63}
)

// edgeIters is the trip count of an edge program's loop: enough for the
// body to be traced and fused long before the last iteration.
const edgeIters = 200

var edgeParams = profile.Params{StartDelay: 16, Threshold: 0.97, DecayInterval: 256}

// edgePush is the jasm that pushes a payload of kind k. Ints beyond the
// iconst immediate are composed from shifts (which the fold legs fold back).
func edgePush(k bytecode.ValKind, v int64) string {
	switch {
	case k == bytecode.KFloat:
		return "fconst " + strconv.FormatFloat(math.Float64frombits(uint64(v)), 'g', -1, 64)
	case v == math.MinInt64:
		return "iconst 1\n iconst 63\n ishl"
	case v == math.MaxInt64:
		return "iconst -1\n iconst 1\n iushr"
	}
	return fmt.Sprintf("iconst %d", v)
}

func kindLetter(k bytecode.ValKind) string {
	if k == bytecode.KFloat {
		return "f"
	}
	return "i"
}

// edgeProgram assembles one opcode's edge program. Per iteration of a hot
// loop and per operand tuple it parks the operands in locals, crosses a call
// (after which the trace compiler knows no local's value), and evaluates the
// op once per operand-source form — every mix of local and constant
// operands, which fuse into superinstructions, then all constants, which
// every folder folds — handing each result to a sink method whose entry the
// caller probes. It returns the program and one iteration's expected sink
// payloads, computed by the shared fold table.
//
// With divZeroAt >= 0 the tuples are (a, divZeroAt - k): the divisor reaches
// zero on that iteration, inside the fused trace.
func edgeProgram(t *testing.T, op bytecode.Op, divZeroAt int) (*classfile.Program, []int64) {
	t.Helper()
	pops, pushes, _ := bytecode.StackKinds(op)
	mnemonic := bytecode.InfoOf(op).Name
	resKind := bytecode.KInt
	isCond := bytecode.InfoOf(op).Flow == bytecode.FlowCond
	if !isCond {
		resKind = pushes[0]
	}
	opKind := pops[0]
	operands := edgeInts
	if opKind == bytecode.KFloat {
		operands = nil
		for _, f := range edgeFloats {
			operands = append(operands, int64(math.Float64bits(f)))
		}
	}
	k, sink := kindLetter(opKind), "invokestatic Main."+kindLetter(resKind)+"sink"

	var body strings.Builder
	var want []int64
	labels := 0
	// eval emits one evaluation of op over the two (or one) operand pushes.
	eval := func(srcs ...string) {
		for _, src := range srcs {
			fmt.Fprintf(&body, "    %s\n", src)
		}
		if isCond {
			labels++
			fmt.Fprintf(&body, "    %s T%d\n    iconst 0\n    goto J%d\nT%d:\n    iconst 1\nJ%d:\n", mnemonic, labels, labels, labels, labels)
		} else {
			fmt.Fprintf(&body, "    %s\n", mnemonic)
		}
		fmt.Fprintf(&body, "    %s\n", sink)
	}
	for _, a := range operands {
		pa, la := edgePush(opKind, a), k+"load 1"
		if len(pops) == 1 {
			fmt.Fprintf(&body, "    %s\n    %sstore 1\n    invokestatic Main.nop\n", pa, k)
			eval(la)
			eval(pa)
			var r int64
			if isCond {
				r = b2i(bytecode.Cond1(op, a))
			} else {
				r = bytecode.FoldUnary(op, a)
			}
			want = append(want, r, r)
			continue
		}
		if divZeroAt >= 0 {
			fmt.Fprintf(&body, "    %s\n    istore 1\n    iconst %d\n    iload 0\n    isub\n    istore 2\n    invokestatic Main.nop\n", pa, divZeroAt)
			eval(la, "iload 2")
			eval(pa, "iload 2")
			continue
		}
		for _, b := range operands {
			var r int64
			if isCond {
				r = b2i(bytecode.Cond2(op, a, b))
			} else if v, ok := bytecode.FoldBinary(op, a, b); ok {
				r = v
			} else {
				continue // ÷0: the divZeroAt programs cover it
			}
			pb, lb := edgePush(opKind, b), k+"load 2"
			fmt.Fprintf(&body, "    %s\n    %sstore 1\n    %s\n    %sstore 2\n    invokestatic Main.nop\n", pa, k, pb, k)
			eval(la, lb)
			eval(la, pb)
			eval(pa, lb)
			eval(pa, pb)
			want = append(want, r, r, r, r)
		}
	}
	src := fmt.Sprintf(`
.class Main
.method static nop ( ) void
    return
.end
.method static isink ( int ) void
    return
.end
.method static fsink ( float ) void
    return
.end
.method static main ( ) void
.locals 3
    iconst 0
    istore 0
loop:
    iload 0
    iconst %d
    if_icmpge done
%s    iinc 0 1
    goto loop
done:
    return
.end
.end
.entry Main main
`, edgeIters, body.String())
	prog, err := jasm.Assemble(src)
	if err != nil {
		t.Fatalf("%s: assemble: %v\n%s", mnemonic, err, src)
	}
	return prog, want
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// edgeLegs runs prog on every engine that evaluates or folds the op — block
// dispatch (execInstrs), unfused traces, fused traces (execSBin for the
// local-operand forms, trace.Compile's folder for the constant ones) and,
// after opt.Program, block dispatch again — and returns per leg the sink
// payloads observed, the run's error, and the fused leg's session.
func edgeLegs(t *testing.T, prog *classfile.Program) (names []string, sunk [][]int64, errs []error, fused *core.Session) {
	t.Helper()
	run := func(name string, prog *classfile.Program, mode core.Mode, conf core.Config) *core.Session {
		pcfg, err := cfg.BuildProgram(prog)
		if err != nil {
			t.Fatalf("%s: cfg: %v", name, err)
		}
		var got []int64
		s, err := core.NewSession(prog, pcfg, core.SessionOptions{
			Mode: mode, Params: edgeParams, Config: conf,
			Probe: func(b *cfg.Block, locals, _ []vm.Value) {
				if b.Index == 0 && strings.HasSuffix(b.Method.Name, "sink") {
					got = append(got, locals[0].N)
				}
			},
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		err = s.Run()
		names, sunk, errs = append(names, name), append(sunk, got), append(errs, err)
		return s
	}
	run("plain", prog, core.ModePlain, core.Config{})
	run("unfused", prog, core.ModeTrace, core.Config{})
	fused = run("fused", prog, core.ModeTrace, core.Config{CompileTraces: true, TierUpDispatches: 1})
	if fused.Counters.CompiledDispatches == 0 {
		t.Fatal("no fused dispatch: the fused leg is vacuous")
	}
	// The optimizer rewrites in place; it runs last.
	if _, err := opt.Program(prog); err != nil {
		t.Fatalf("optimizer: %v", err)
	}
	run("opt", prog, core.ModePlain, core.Config{})
	return names, sunk, errs, fused
}

// TestEdgeOperandDifferential pins every evaluator of the pure opcodes to
// bytecode.FoldBinary / FoldUnary / Cond1 / Cond2 on the edge operands,
// bit for bit: the interpreter's two inline switches (which do not call the
// table, for speed) and the three folders that do.
func TestEdgeOperandDifferential(t *testing.T) {
	ops := []bytecode.Op{
		bytecode.IAdd, bytecode.ISub, bytecode.IMul, bytecode.IDiv, bytecode.IRem, bytecode.INeg,
		bytecode.IShl, bytecode.IShr, bytecode.IUshr, bytecode.IAnd, bytecode.IOr, bytecode.IXor,
		bytecode.FAdd, bytecode.FSub, bytecode.FMul, bytecode.FDiv, bytecode.FRem, bytecode.FNeg,
		bytecode.I2F, bytecode.F2I, bytecode.FCmpL, bytecode.FCmpG,
		bytecode.IfEq, bytecode.IfNe, bytecode.IfLt, bytecode.IfGe, bytecode.IfGt, bytecode.IfLe,
		bytecode.IfICmpEq, bytecode.IfICmpNe, bytecode.IfICmpLt, bytecode.IfICmpGe, bytecode.IfICmpGt, bytecode.IfICmpLe,
	}
	for _, op := range ops {
		t.Run(bytecode.InfoOf(op).Name, func(t *testing.T) {
			prog, want := edgeProgram(t, op, -1)
			names, sunk, errs, fused := edgeLegs(t, prog)
			for i, name := range names {
				if errs[i] != nil {
					t.Fatalf("%s: %v", name, errs[i])
				}
				if len(sunk[i]) != edgeIters*len(want) {
					t.Fatalf("%s: %d results, want %d", name, len(sunk[i]), edgeIters*len(want))
				}
				for j, got := range sunk[i] {
					if got != want[j%len(want)] {
						t.Fatalf("%s: iteration %d, result %d = %#x, fold table says %#x",
							name, j/len(want), j%len(want), uint64(got), uint64(want[j%len(want)]))
					}
				}
			}
			// The local-operand forms must have run as superinstructions.
			modes := map[uint8]bool{}
			for _, tr := range fused.Cache.Traces() {
				if tr.Compiled == nil {
					continue
				}
				for _, seg := range tr.Compiled.Segs {
					for _, so := range seg.Ops {
						if so.Kind == trace.SBin && so.Op == op {
							modes[so.Mode] = true
						}
					}
					switch seg.Term.Kind {
					case trace.TCondI:
						if seg.Term.Op == op {
							modes[trace.SrcL] = true
						}
					case trace.TCondII:
						if seg.Term.Op == op {
							modes[seg.Term.Mode] = true
						}
					}
				}
			}
			wantModes := []uint8{trace.SrcL}
			if pops, _, _ := bytecode.StackKinds(op); len(pops) == 2 {
				wantModes = []uint8{trace.SrcLL, trace.SrcLC, trace.SrcCL}
			}
			for _, m := range wantModes {
				if !modes[m] {
					t.Errorf("no fused trace holds the op in operand-source mode %d (saw %v); the superinstruction leg is vacuous", m, modes)
				}
			}
		})
	}

	// ÷0 traps in every engine, at the same PC, and no folder folds it away.
	for _, op := range []bytecode.Op{bytecode.IDiv, bytecode.IRem} {
		t.Run(bytecode.InfoOf(op).Name+"-by-zero", func(t *testing.T) {
			prog, _ := edgeProgram(t, op, edgeIters-1)
			names, sunk, errs, _ := edgeLegs(t, prog)
			for i, name := range names {
				tr, ok := vm.AsTrap(errs[i])
				if !ok || tr.Kind != vm.TrapDivByZero {
					t.Fatalf("%s: err = %v, want a division-by-zero trap", name, errs[i])
				}
				if name != "opt" && errs[i].Error() != errs[0].Error() {
					t.Errorf("%s trapped at %q, plain at %q", name, errs[i], errs[0])
				}
				if !slices.Equal(sunk[i], sunk[0]) {
					t.Errorf("%s: results before the trap differ from plain's", name)
				}
			}
			if len(sunk[0]) != (edgeIters-1)*2*len(edgeInts) {
				t.Errorf("trap after %d results, want on the last iteration's first division", len(sunk[0]))
			}

			// A constant zero divisor cannot run hot, so the folders are
			// checked on a straight-line block: trace.Compile keeps the op
			// live, and the optimized program still traps.
			prog, err := jasm.Assemble(fmt.Sprintf(`
.class Main
.method static main ( ) void
    iconst 7
    iconst 0
    %s
    pop
    return
.end
.end
.entry Main main
`, bytecode.InfoOf(op).Name))
			if err != nil {
				t.Fatal(err)
			}
			pcfg, err := cfg.BuildProgram(prog)
			if err != nil {
				t.Fatal(err)
			}
			entry := pcfg.MethodEntry(prog.Main)
			live := false
			if cp := trace.Compile(&trace.CompileEnv{Blocks: []*cfg.Block{entry}, Resolve: pcfg.Block}); cp != nil {
				for _, so := range cp.Segs[0].Ops {
					if so.Kind != trace.SExec {
						continue
					}
					for _, in := range entry.Instrs[so.A:so.B] {
						live = live || in.Op == op
					}
				}
			}
			if !live {
				t.Error("trace.Compile folded a division by constant zero away")
			}
			if _, err := opt.Program(prog); err != nil {
				t.Fatal(err)
			}
			ocfg, err := cfg.BuildProgram(prog)
			if err != nil {
				t.Fatal(err)
			}
			s, err := core.NewSession(prog, ocfg, core.SessionOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if tr, ok := vm.AsTrap(s.Run()); !ok || tr.Kind != vm.TrapDivByZero {
				t.Error("the optimizer folded a division by constant zero away")
			}
		})
	}
}
