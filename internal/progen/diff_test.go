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
	"repro/internal/profile"
	"repro/internal/progen"
	"repro/internal/stats"
	"repro/internal/vm"
)

// runUnder executes a compiled program under one mode and returns output.
func runUnder(t *testing.T, prog *classfile.Program, pcfg *cfg.ProgramCFG, mode core.Mode) string {
	t.Helper()
	out, _ := runWith(t, prog, pcfg, mode)
	return out
}

// runWith is runUnder also returning the run's counters.
func runWith(t *testing.T, prog *classfile.Program, pcfg *cfg.ProgramCFG, mode core.Mode) (string, stats.Counters) {
	t.Helper()
	var out bytes.Buffer
	s, err := core.NewSession(prog, pcfg, core.SessionOptions{
		Mode:     mode,
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

// TestDifferentialEngines is the pipeline's differential tester: for each
// random program, every engine must print exactly the same thing.
func TestDifferentialEngines(t *testing.T) {
	seeds := 60
	if testing.Short() {
		seeds = 10
	}
	modes := []core.Mode{core.ModePlain, core.ModeInstr, core.ModeProfile, core.ModeTrace, core.ModeTraceDeploy}
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

		want, plain := runWith(t, prog, pcfg, core.ModePlain)
		for _, mode := range modes[1:] {
			if got := runUnder(t, prog, pcfg, mode); got != want {
				t.Errorf("seed %d: mode %s diverged:\nwant %q\ngot  %q\nprogram:\n%s",
					seed, mode, want, got, src)
			}
		}

		// Trace execution must do exactly the work of block dispatch, not
		// just print the same.
		if _, c := runWith(t, prog, pcfg, core.ModeTrace); c.Instrs != plain.Instrs || c.BlockDispatches != plain.BlockDispatches || c.MethodCalls != plain.MethodCalls {
			t.Errorf("seed %d: traces did different work: instrs %d, blocks %d, calls %d; plain %d, %d, %d\nprogram:\n%s",
				seed, c.Instrs, c.BlockDispatches, c.MethodCalls,
				plain.Instrs, plain.BlockDispatches, plain.MethodCalls, src)
		}
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
// body to be traced long before the last iteration.
const edgeIters = 200

var edgeParams = profile.Params{StartDelay: 16, Threshold: 0.97, DecayInterval: 256}

// edgePush is the jasm that pushes a payload of kind k. Ints beyond the
// iconst immediate are composed from shifts.
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
// loop and per operand tuple it parks the operands in locals, crosses a call,
// and evaluates the op once per operand-source form — every mix of local and
// constant operands, then all constants — handing each result to a sink
// method whose entry the caller probes. It returns the program and one
// iteration's expected sink payloads, computed by the shared fold table.
//
// With divZeroAt >= 0 the tuples are (a, divZeroAt - k): the divisor reaches
// zero on that iteration, inside the trace.
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

// edgeLegs runs prog on every engine that evaluates the op — block dispatch
// (execInstrs) and traces — and returns per leg the sink payloads observed
// and the run's error.
func edgeLegs(t *testing.T, prog *classfile.Program) (names []string, sunk [][]int64, errs []error) {
	t.Helper()
	run := func(name string, prog *classfile.Program, mode core.Mode) {
		pcfg, err := cfg.BuildProgram(prog)
		if err != nil {
			t.Fatalf("%s: cfg: %v", name, err)
		}
		var got []int64
		s, err := core.NewSession(prog, pcfg, core.SessionOptions{
			Mode: mode, Params: edgeParams,
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
	}
	run("plain", prog, core.ModePlain)
	run("trace", prog, core.ModeTrace)
	return names, sunk, errs
}

// TestEdgeOperandDifferential pins every evaluator of the pure opcodes to
// bytecode.FoldBinary / FoldUnary / Cond1 / Cond2 on the edge operands,
// bit for bit: the interpreter's inline switch does not call the table, for
// speed, so this is what holds the two together.
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
			names, sunk, errs := edgeLegs(t, prog)
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
		})
	}

	// ÷0 traps in every engine, at the same PC.
	for _, op := range []bytecode.Op{bytecode.IDiv, bytecode.IRem} {
		t.Run(bytecode.InfoOf(op).Name+"-by-zero", func(t *testing.T) {
			prog, _ := edgeProgram(t, op, edgeIters-1)
			names, sunk, errs := edgeLegs(t, prog)
			for i, name := range names {
				tr, ok := vm.AsTrap(errs[i])
				if !ok || tr.Kind != vm.TrapDivByZero {
					t.Fatalf("%s: err = %v, want a division-by-zero trap", name, errs[i])
				}
				if errs[i].Error() != errs[0].Error() {
					t.Errorf("%s trapped at %q, plain at %q", name, errs[i], errs[0])
				}
				if !slices.Equal(sunk[i], sunk[0]) {
					t.Errorf("%s: results before the trap differ from plain's", name)
				}
			}
			if len(sunk[0]) != (edgeIters-1)*2*len(edgeInts) {
				t.Errorf("trap after %d results, want on the last iteration's first division", len(sunk[0]))
			}
		})
	}
}
