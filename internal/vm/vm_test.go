package vm_test

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/cfg"
	"repro/internal/jasm"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/vm"
)

// run assembles and executes a jasm program, returning output and counters.
func run(t *testing.T, src string, opts vm.Options) (string, *stats.Counters, error) {
	t.Helper()
	prog, err := jasm.Assemble(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	pcfg, err := cfg.BuildProgram(prog)
	if err != nil {
		t.Fatalf("cfg: %v", err)
	}
	var out bytes.Buffer
	opts.Out = &out
	if opts.MaxSteps == 0 {
		opts.MaxSteps = 10_000_000
	}
	ctr := opts.Counters
	if ctr == nil {
		ctr = &stats.Counters{}
		opts.Counters = ctr
	}
	m, err := vm.New(prog, pcfg, opts)
	if err != nil {
		t.Fatalf("vm.New: %v", err)
	}
	err = m.Run()
	return out.String(), ctr, err
}

// mustRun fails the test on a runtime error.
func mustRun(t *testing.T, src string) string {
	t.Helper()
	out, _, err := run(t, src, vm.Options{})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return out
}

const prelude = `
.class Main
.native static pi ( int ) void println_int
.native static pf ( float ) void println_float
`

func TestIntArithmeticOps(t *testing.T) {
	out := mustRun(t, prelude+`
.method static main ( ) void
    iconst 7 iconst 3 iadd invokestatic Main.pi      ; 10
    iconst 7 iconst 3 isub invokestatic Main.pi      ; 4
    iconst 7 iconst 3 imul invokestatic Main.pi      ; 21
    iconst 7 iconst 3 idiv invokestatic Main.pi      ; 2
    iconst -7 iconst 3 idiv invokestatic Main.pi     ; -2 (Go/Java trunc)
    iconst 7 iconst 3 irem invokestatic Main.pi      ; 1
    iconst -7 iconst 3 irem invokestatic Main.pi     ; -1
    iconst 5 ineg invokestatic Main.pi               ; -5
    iconst 1 iconst 62 ishl invokestatic Main.pi     ; 4611686018427387904
    iconst -8 iconst 1 ishr invokestatic Main.pi     ; -4
    iconst -1 iconst 63 iushr invokestatic Main.pi   ; 1
    iconst 12 iconst 10 iand invokestatic Main.pi    ; 8
    iconst 12 iconst 10 ior invokestatic Main.pi     ; 14
    iconst 12 iconst 10 ixor invokestatic Main.pi    ; 6
    return
.end
.end
.entry Main main
`)
	want := "10\n4\n21\n2\n-2\n1\n-1\n-5\n4611686018427387904\n-4\n1\n8\n14\n6\n"
	if out != want {
		t.Errorf("output:\n%s\nwant:\n%s", out, want)
	}
}

func TestFloatOpsAndComparisons(t *testing.T) {
	out := mustRun(t, prelude+`
.method static main ( ) void
    fconst 1.5 fconst 2.5 fadd invokestatic Main.pf    ; 4
    fconst 1.0 fconst 8.0 fdiv invokestatic Main.pf    ; 0.125
    fconst 7.5 fconst 2.0 frem invokestatic Main.pf    ; 1.5
    fconst 3.0 fneg invokestatic Main.pf               ; -3
    iconst 9 i2f invokestatic Main.pf                  ; 9
    fconst 9.99 f2i invokestatic Main.pi               ; 9
    fconst 1.0 fconst 2.0 fcmpl invokestatic Main.pi   ; -1
    fconst 2.0 fconst 2.0 fcmpg invokestatic Main.pi   ; 0
    fconst 3.0 fconst 2.0 fcmpl invokestatic Main.pi   ; 1
    return
.end
.end
.entry Main main
`)
	want := "4\n0.125\n1.5\n-3\n9\n9\n-1\n0\n1\n"
	if out != want {
		t.Errorf("output:\n%s\nwant:\n%s", out, want)
	}
}

func TestNaNComparisons(t *testing.T) {
	out := mustRun(t, prelude+`
.method static main ( ) void
.locals 1
    fconst 0.0 fconst 0.0 fdiv fstore 0     ; NaN
    fload 0 fconst 1.0 fcmpl invokestatic Main.pi   ; -1 (L orders NaN low)
    fload 0 fconst 1.0 fcmpg invokestatic Main.pi   ; 1  (G orders NaN high)
    fload 0 fload 0 fcmpl invokestatic Main.pi      ; -1 (NaN != NaN)
    return
.end
.end
.entry Main main
`)
	if out != "-1\n1\n-1\n" {
		t.Errorf("NaN comparisons: %q", out)
	}
}

func TestStackManipulation(t *testing.T) {
	out := mustRun(t, prelude+`
.method static main ( ) void
    iconst 1 iconst 2 swap isub invokestatic Main.pi   ; 2-1 = 1
    iconst 5 dup iadd invokestatic Main.pi             ; 10
    iconst 3 iconst 4 dup_x1 iadd isub invokestatic Main.pi ; 4 - (3+4) = -3
    iconst 9 iconst 8 pop invokestatic Main.pi         ; 9
    return
.end
.end
.entry Main main
`)
	if out != "1\n10\n-3\n9\n" {
		t.Errorf("stack ops: %q", out)
	}
}

func TestSwitches(t *testing.T) {
	src := prelude + `
.method static classify ( int ) int
    iload 0
    tableswitch 10 dflt a b c
a:  iconst 100 ireturn
b:  iconst 200 ireturn
c:  iconst 300 ireturn
dflt: iconst -1 ireturn
.end
.method static pick ( int ) int
    iload 0
    lookupswitch dflt 5:five -7:neg 1000:big
five: iconst 55 ireturn
neg:  iconst 77 ireturn
big:  iconst 99 ireturn
dflt: iconst 0 ireturn
.end
.method static main ( ) void
    iconst 10 invokestatic Main.classify invokestatic Main.pi ; 100
    iconst 11 invokestatic Main.classify invokestatic Main.pi ; 200
    iconst 12 invokestatic Main.classify invokestatic Main.pi ; 300
    iconst 13 invokestatic Main.classify invokestatic Main.pi ; -1
    iconst 9  invokestatic Main.classify invokestatic Main.pi ; -1
    iconst 5 invokestatic Main.pick invokestatic Main.pi      ; 55
    iconst -7 invokestatic Main.pick invokestatic Main.pi     ; 77
    iconst 1000 invokestatic Main.pick invokestatic Main.pi   ; 99
    iconst 6 invokestatic Main.pick invokestatic Main.pi      ; 0
    return
.end
.end
.entry Main main
`
	out := mustRun(t, src)
	if out != "100\n200\n300\n-1\n-1\n55\n77\n99\n0\n" {
		t.Errorf("switches: %q", out)
	}
}

func TestObjectsFieldsAndVirtualDispatch(t *testing.T) {
	out := mustRun(t, `
.class Animal
.field legs int
.method speak ( ) int
    iconst 0 ireturn
.end
.end
.class Dog
.super Animal
.method speak ( ) int
    iconst 42 ireturn
.end
.end
.class Main
.native static pi ( int ) void println_int
.method static main ( ) void
.locals 1
    new Dog
    astore 0
    aload 0 iconst 4 putfield Animal.legs
    aload 0 getfield Animal.legs invokestatic Main.pi   ; 4
    aload 0 invokevirtual Animal.speak invokestatic Main.pi ; 42 (override)
    new Animal astore 0
    aload 0 invokevirtual Animal.speak invokestatic Main.pi ; 0
    aload 0 instanceof Dog invokestatic Main.pi          ; 0
    new Dog instanceof Animal invokestatic Main.pi       ; 1
    aconst_null instanceof Animal invokestatic Main.pi   ; 0
    new Dog checkcast Animal pop
    aconst_null checkcast Dog pop                        ; null passes
    return
.end
.end
.entry Main main
`)
	if out != "4\n42\n0\n0\n1\n0\n" {
		t.Errorf("objects: %q", out)
	}
}

func TestStaticsAndSpecialCalls(t *testing.T) {
	out := mustRun(t, `
.class Counter
.field static total int
.method bump ( ) void
    getstatic Counter.total iconst 1 iadd putstatic Counter.total
    return
.end
.end
.class Main
.native static pi ( int ) void println_int
.method static main ( ) void
.locals 1
    new Counter astore 0
    aload 0 invokespecial Counter.bump
    aload 0 invokespecial Counter.bump
    getstatic Counter.total invokestatic Main.pi    ; 2
    return
.end
.end
.entry Main main
`)
	if out != "2\n" {
		t.Errorf("statics: %q", out)
	}
}

func TestArrays(t *testing.T) {
	out := mustRun(t, prelude+`
.method static main ( ) void
.locals 2
    iconst 3 newarray int astore 0
    aload 0 iconst 0 iconst 11 iastore
    aload 0 iconst 2 iconst 33 iastore
    aload 0 iconst 0 iaload aload 0 iconst 2 iaload iadd invokestatic Main.pi  ; 44
    aload 0 arraylength invokestatic Main.pi     ; 3
    iconst 2 newarray float astore 1
    aload 1 iconst 1 fconst 2.5 fastore
    aload 1 iconst 1 faload invokestatic Main.pf ; 2.5
    iconst 4 newarray byte astore 0
    aload 0 iconst 3 iconst 250 bastore
    aload 0 iconst 3 baload invokestatic Main.pi ; 250
    iconst 2 newarray ref astore 1
    aload 1 iconst 0 sconst "x" aastore
    aload 1 iconst 0 aaload ifnonnull ok
    iconst -1 invokestatic Main.pi
ok:
    iconst 7 invokestatic Main.pi                ; 7
    return
.end
.end
.entry Main main
`)
	if out != "44\n3\n2.5\n250\n7\n" {
		t.Errorf("arrays: %q", out)
	}
}

func TestRefConditionals(t *testing.T) {
	out := mustRun(t, prelude+`
.method static main ( ) void
.locals 2
    sconst "a" astore 0
    aload 0 astore 1
    aload 0 aload 1 if_acmpeq same
    iconst 0 invokestatic Main.pi
    goto next
same:
    iconst 1 invokestatic Main.pi     ; 1 (same object)
next:
    sconst "a" aload 0 if_acmpne diff
    iconst 0 invokestatic Main.pi
    return
diff:
    iconst 2 invokestatic Main.pi     ; 2 (distinct allocations)
    aconst_null ifnull isnull
    return
isnull:
    iconst 3 invokestatic Main.pi     ; 3
    return
.end
.end
.entry Main main
`)
	if out != "1\n2\n3\n" {
		t.Errorf("ref conditionals: %q", out)
	}
}

func TestTrapDetails(t *testing.T) {
	src := prelude + `
.method static main ( ) void
.locals 1
    iconst 0 istore 0
    iconst 1 iload 0 idiv invokestatic Main.pi
    return
.end
.end
.entry Main main
`
	_, _, err := run(t, src, vm.Options{})
	trap, ok := vm.AsTrap(err)
	if !ok {
		t.Fatalf("error = %v, want trap", err)
	}
	if trap.Kind != vm.TrapDivByZero {
		t.Errorf("kind = %v", trap.Kind)
	}
	if !strings.Contains(trap.Error(), "Main.main") {
		t.Errorf("trap lacks method context: %v", trap)
	}
}

func TestStepLimit(t *testing.T) {
	src := prelude + `
.method static main ( ) void
loop:
    goto loop
.end
.end
.entry Main main
`
	_, _, err := run(t, src, vm.Options{MaxSteps: 1000})
	trap, ok := vm.AsTrap(err)
	if !ok || trap.Kind != vm.TrapStepLimit {
		t.Fatalf("error = %v, want step-limit trap", err)
	}
}

func TestUnboundNative(t *testing.T) {
	src := `
.class Main
.native static nope ( ) void no_such_native
.method static main ( ) void
    invokestatic Main.nope
    return
.end
.end
.entry Main main
`
	_, _, err := run(t, src, vm.Options{})
	trap, ok := vm.AsTrap(err)
	if !ok || trap.Kind != vm.TrapNoNative {
		t.Fatalf("error = %v, want no-native trap", err)
	}
}

func TestAbstractCallTrap(t *testing.T) {
	src := `
.class Base
.abstract f ( ) int
.end
.class Main
.native static pi ( int ) void println_int
.method static main ( ) void
    new Base invokevirtual Base.f invokestatic Main.pi
    return
.end
.end
.entry Main main
`
	_, _, err := run(t, src, vm.Options{})
	trap, ok := vm.AsTrap(err)
	if !ok || trap.Kind != vm.TrapAbstractCall {
		t.Fatalf("error = %v, want abstract-call trap", err)
	}
}

func TestRegisterNativeOverride(t *testing.T) {
	prog, err := jasm.Assemble(`
.class Main
.native static magic ( ) int custom_magic
.native static pi ( int ) void println_int
.method static main ( ) void
    invokestatic Main.magic invokestatic Main.pi
    return
.end
.end
.entry Main main
`)
	if err != nil {
		t.Fatal(err)
	}
	pcfg, err := cfg.BuildProgram(prog)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	m, err := vm.New(prog, pcfg, vm.Options{Out: &out})
	if err != nil {
		t.Fatal(err)
	}
	m.RegisterNative("custom_magic", func(_ *vm.Machine, _ []vm.Value) (vm.Value, error) {
		return vm.IntVal(1234), nil
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if out.String() != "1234\n" {
		t.Errorf("custom native output = %q", out.String())
	}
}

// TestRegisterNativeStaysOnItsMachine: machines share the built-in natives
// table, so a registration on one must not reach another.
func TestRegisterNativeStaysOnItsMachine(t *testing.T) {
	const src = `
.class Main
.native static magic ( ) int custom_magic
.method static main ( ) void
    invokestatic Main.magic pop
    return
.end
.end
.entry Main main
`
	prog, err := jasm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	pcfg, err := cfg.BuildProgram(prog)
	if err != nil {
		t.Fatal(err)
	}
	m, err := vm.New(prog, pcfg, vm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m.RegisterNative("custom_magic", func(_ *vm.Machine, _ []vm.Value) (vm.Value, error) {
		return vm.IntVal(1), nil
	})
	if err := m.Run(); err != nil {
		t.Fatalf("registering machine: %v", err)
	}
	_, _, err = run(t, src, vm.Options{})
	if tr, ok := vm.AsTrap(err); !ok || tr.Kind != vm.TrapNoNative {
		t.Fatalf("another machine: err %v, want a %v trap", err, vm.TrapNoNative)
	}
}

func TestDispatchCountsMatchModel(t *testing.T) {
	// A straight-line main with one call: count blocks precisely.
	src := prelude + `
.method static f ( ) void
    return
.end
.method static main ( ) void
    invokestatic Main.f
    return
.end
.end
.entry Main main
`
	_, ctr, err := run(t, src, vm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Blocks executed: main#0 (call) -> f#0 (return) -> main#1 (return).
	// Dispatch edges: main#0->f#0, f#0->main#1, main#1->halt = 3 block
	// dispatches counted (one per executed block).
	if ctr.BlockDispatches != 3 {
		t.Errorf("block dispatches = %d, want 3", ctr.BlockDispatches)
	}
	if ctr.MethodCalls != 1 || ctr.NativeCalls != 0 {
		t.Errorf("calls = %d/%d, want 1/0", ctr.MethodCalls, ctr.NativeCalls)
	}
}

// hookRecorder verifies hook edge sequencing.
type hookRecorder struct {
	edges [][2]cfg.BlockID
}

func (h *hookRecorder) OnDispatch(from, to cfg.BlockID) {
	h.edges = append(h.edges, [2]cfg.BlockID{from, to})
}

func TestHookSeesContiguousEdges(t *testing.T) {
	src := prelude + `
.method static main ( ) void
.locals 1
    iconst 0 istore 0
loop:
    iload 0 iconst 3 if_icmpge done
    iinc 0 1
    goto loop
done:
    return
.end
.end
.entry Main main
`
	h := &hookRecorder{}
	_, _, err := run(t, src, vm.Options{Hook: h})
	if err != nil {
		t.Fatal(err)
	}
	if len(h.edges) == 0 {
		t.Fatal("hook never fired")
	}
	for i := 1; i < len(h.edges); i++ {
		if h.edges[i][0] != h.edges[i-1][1] {
			t.Fatalf("edge %d (%v) does not continue from %v", i, h.edges[i], h.edges[i-1])
		}
	}
}

func TestTraceDispatchWithManualSource(t *testing.T) {
	// Construct a trace by hand over the loop blocks and verify the engine
	// dispatches, completes, and side-exits it correctly.
	src := prelude + `
.method static main ( ) void
.locals 1
    iconst 0 istore 0
loop:
    iload 0 iconst 10 if_icmpge done
    iinc 0 1
    goto loop
done:
    return
.end
.end
.entry Main main
`
	prog, err := jasm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	pcfg, err := cfg.BuildProgram(prog)
	if err != nil {
		t.Fatal(err)
	}
	// Blocks: 0 entry, 1 header, 2 body, 3 done. Trace: header->body.
	tr := trace.New(0, []cfg.BlockID{1, 2}, 0.97)
	src2 := trace.MapSource{}
	src2.Register(2, 1, tr) // entered when body loops back to header
	ctr := &stats.Counters{}
	m, err := vm.New(prog, pcfg, vm.Options{Traces: src2, Counters: ctr, MaxSteps: 100000})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	// The body block executes for i=0..9, so the back edge (2,1) occurs 10
	// times with i=1..10; the final entry side-exits at the header (i==10
	// branches to done), the other 9 complete.
	if tr.Entered != 10 {
		t.Errorf("entered = %d, want 10", tr.Entered)
	}
	if tr.Completed != 9 {
		t.Errorf("completed = %d, want 9", tr.Completed)
	}
	if tr.SideExits[0] != 1 {
		t.Errorf("side exits after block 0 = %d, want 1", tr.SideExits[0])
	}
	if ctr.TracesEntered != 10 || ctr.TracesCompleted != 9 {
		t.Errorf("counters: entered %d completed %d", ctr.TracesEntered, ctr.TracesCompleted)
	}
	// Instruction totals must match a plain run.
	ctr2 := &stats.Counters{}
	m2, _ := vm.New(prog, pcfg, vm.Options{Counters: ctr2, MaxSteps: 100000})
	if err := m2.Run(); err != nil {
		t.Fatal(err)
	}
	if ctr.Instrs != ctr2.Instrs {
		t.Errorf("instr totals differ: trace %d vs plain %d", ctr.Instrs, ctr2.Instrs)
	}
}

func TestRetiredTraceNotDispatched(t *testing.T) {
	src := prelude + `
.method static main ( ) void
.locals 1
    iconst 0 istore 0
loop:
    iload 0 iconst 5 if_icmpge done
    iinc 0 1
    goto loop
done:
    return
.end
.end
.entry Main main
`
	prog, _ := jasm.Assemble(src)
	pcfg, _ := cfg.BuildProgram(prog)
	tr := trace.New(0, []cfg.BlockID{1, 2}, 0.97)
	tr.Retired = true
	srcMap := trace.MapSource{}
	srcMap.Register(2, 1, tr)
	ctr := &stats.Counters{}
	m, _ := vm.New(prog, pcfg, vm.Options{Traces: srcMap, Counters: ctr, MaxSteps: 100000})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if tr.Entered != 0 || ctr.TracesEntered != 0 {
		t.Error("retired trace was dispatched")
	}
}

func TestValueHelpers(t *testing.T) {
	if vm.IntVal(-3).Int() != -3 {
		t.Error("IntVal")
	}
	if vm.FloatVal(2.5).Float() != 2.5 {
		t.Error("FloatVal")
	}
	if vm.BoolVal(true).Int() != 1 || vm.BoolVal(false).Int() != 0 {
		t.Error("BoolVal")
	}
	if !vm.RefVal(nil).IsNull() {
		t.Error("null ref")
	}
	o := vm.NewString("hi")
	if o.Length() != 2 || o.Kind != vm.KindString {
		t.Error("NewString")
	}
	if vm.NewByteArray(4).Length() != 4 {
		t.Error("NewByteArray")
	}
	if vm.NewValueArray(0, 7).Length() != 7 {
		t.Error("NewValueArray")
	}
}

func TestIntDivisionOverflowEdge(t *testing.T) {
	// MinInt64 / -1 and MinInt64 % -1 overflow in Go; Java (and this VM)
	// define them as MinInt64 and 0 respectively.
	out := mustRun(t, prelude+`
.method static main ( ) void
.locals 1
    iconst 1 iconst 63 ishl istore 0      ; MinInt64
    iload 0 iconst -1 idiv invokestatic Main.pi
    iload 0 iconst -1 irem invokestatic Main.pi
    iconst 10 iconst -1 idiv invokestatic Main.pi
    iconst 10 iconst -1 irem invokestatic Main.pi
    return
.end
.end
.entry Main main
`)
	if out != "-9223372036854775808\n0\n-10\n0\n" {
		t.Errorf("division edge cases: %q", out)
	}
}

func TestCheckCastFailureTraps(t *testing.T) {
	src := `
.class A
.end
.class B
.end
.class Main
.method static main ( ) void
    new A checkcast B pop
    return
.end
.end
.entry Main main
`
	_, _, err := run(t, src, vm.Options{})
	trap, ok := vm.AsTrap(err)
	if !ok || trap.Kind != vm.TrapBadCast {
		t.Fatalf("error = %v, want bad-cast trap", err)
	}
}

func TestVirtualCallOnNonObjectTraps(t *testing.T) {
	src := `
.class A
.method f ( ) int
    iconst 1 ireturn
.end
.end
.class Main
.native static pi ( int ) void println_int
.method static main ( ) void
    sconst "not an A" invokevirtual A.f invokestatic Main.pi
    return
.end
.end
.entry Main main
`
	_, _, err := run(t, src, vm.Options{})
	trap, ok := vm.AsTrap(err)
	if !ok || trap.Kind != vm.TrapBadCast {
		t.Fatalf("error = %v, want bad-cast trap", err)
	}
}

func TestFieldAccessOnWrongShapeTraps(t *testing.T) {
	src := `
.class A
.field x int
.end
.class Main
.native static pi ( int ) void println_int
.method static main ( ) void
    iconst 2 newarray int getfield A.x invokestatic Main.pi
    return
.end
.end
.entry Main main
`
	_, _, err := run(t, src, vm.Options{})
	trap, ok := vm.AsTrap(err)
	if !ok || trap.Kind != vm.TrapBadCast {
		t.Fatalf("error = %v, want bad-cast trap", err)
	}
}

func TestArrayKindMismatchTraps(t *testing.T) {
	cases := []string{
		// int load from a byte array
		`iconst 2 newarray byte iconst 0 iaload pop`,
		// byte store into an int array
		`iconst 2 newarray int iconst 0 iconst 1 bastore`,
		// arraylength on a plain object
		`new Main arraylength pop`,
	}
	for i, body := range cases {
		src := `
.class Main
.method static main ( ) void
    ` + body + `
    return
.end
.end
.entry Main main
`
		_, _, err := run(t, src, vm.Options{})
		if trap, ok := vm.AsTrap(err); !ok || trap.Kind != vm.TrapBadCast {
			t.Errorf("case %d: error = %v, want bad-cast trap", i, err)
		}
	}
}

func TestMachineConstructorErrors(t *testing.T) {
	prog, err := jasm.Assemble(`
.class Main
.method static main ( ) void
    return
.end
.end
.entry Main main
`)
	if err != nil {
		t.Fatal(err)
	}
	pcfg, err := cfg.BuildProgram(prog)
	if err != nil {
		t.Fatal(err)
	}
	// CFG belonging to another program is rejected.
	prog2, _ := jasm.Assemble(`
.class Other
.method static main ( ) void
    return
.end
.end
.entry Other main
`)
	if _, err := vm.New(prog2, pcfg, vm.Options{}); err == nil {
		t.Error("mismatched CFG accepted")
	}
	// Unlinked program rejected.
	up, _ := jasm.AssembleUnlinked(`
.class X
.method static main ( ) void
    return
.end
.end
.entry X main
`)
	if _, err := vm.New(up, pcfg, vm.Options{}); err == nil {
		t.Error("unlinked program accepted")
	}
}

// TestOperandStackOverflowTraps pins that the operand stack's capacity is a
// hard bound: pushFrame sizes it by the verifier's MaxStack (at least 16
// slots), and a method that pushes past it — here, one whose recorded bound
// is lowered after linking — stops with a TrapBadProgram naming the method
// instead of growing the stack or panicking out of the engine.
func TestOperandStackOverflowTraps(t *testing.T) {
	const depth = 20
	src := ".class Main\n.method static main ( ) void\n" +
		strings.Repeat("    iconst 1\n", depth) +
		strings.Repeat("    pop\n", depth) +
		"    return\n.end\n.end\n.entry Main main\n"
	for _, engine := range []string{"block", "instr"} {
		t.Run(engine, func(t *testing.T) {
			prog, err := jasm.Assemble(src)
			if err != nil {
				t.Fatalf("assemble: %v", err)
			}
			if prog.Main.MaxStack != depth {
				t.Fatalf("linked MaxStack = %d, want %d", prog.Main.MaxStack, depth)
			}
			pcfg, err := cfg.BuildProgram(prog)
			if err != nil {
				t.Fatalf("cfg: %v", err)
			}
			prog.Main.MaxStack = 1
			m, err := vm.New(prog, pcfg, vm.Options{})
			if err != nil {
				t.Fatalf("vm.New: %v", err)
			}
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic escaped the engine: %v", r)
				}
			}()
			if engine == "block" {
				err = m.Run()
			} else {
				err = m.RunInstrMode()
			}
			trap, ok := vm.AsTrap(err)
			if !ok || trap.Kind != vm.TrapBadProgram {
				t.Fatalf("error = %v, want a bad-program trap", err)
			}
			if trap.Method != prog.Main.QName() {
				t.Errorf("trap names method %q, want %q", trap.Method, prog.Main.QName())
			}
		})
	}
}
