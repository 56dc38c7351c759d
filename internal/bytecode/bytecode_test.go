package bytecode

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestOpMetadataComplete(t *testing.T) {
	for op := 0; op < NumOps; op++ {
		in := infos[op]
		if in.Name == "" {
			t.Errorf("opcode %d has no metadata", op)
		}
	}
}

// TestStackKindsCoverEveryOpcode: the stack-effect table gives exact counts
// for every opcode but the calls, whose arity lives in the method ref.
func TestStackKindsCoverEveryOpcode(t *testing.T) {
	for op := 0; op < NumOps; op++ {
		if _, _, ok := StackKinds(Op(op)); ok == Op(op).IsCall() {
			t.Errorf("%s: StackKinds ok = %v, want %v", Op(op), ok, !Op(op).IsCall())
		}
	}
	if _, _, ok := StackKinds(Op(NumOps)); ok {
		t.Error("StackKinds(NumOps) ok = true")
	}
}

func TestOpByNameRoundTrip(t *testing.T) {
	for op := 0; op < NumOps; op++ {
		name := Op(op).String()
		got, ok := OpByName(name)
		if !ok {
			t.Errorf("OpByName(%q) failed", name)
			continue
		}
		if got != Op(op) {
			t.Errorf("OpByName(%q) = %v, want %v", name, got, Op(op))
		}
	}
	if _, ok := OpByName("bogus"); ok {
		t.Error("OpByName(bogus) succeeded")
	}
	if Valid(Op(255)) {
		t.Error("Valid(255) = true")
	}
	if Op(255).String() != "invalid" {
		t.Errorf("Op(255).String() = %q", Op(255).String())
	}
}

func TestFlowClassification(t *testing.T) {
	cases := []struct {
		op                      Op
		term, branch, call, ret bool
	}{
		{IAdd, false, false, false, false},
		{Goto, true, true, false, false},
		{IfEq, true, true, false, false},
		{TableSwitch, true, true, false, false},
		{LookupSwitch, true, true, false, false},
		{InvokeVirtual, true, false, true, false},
		{InvokeStatic, true, false, true, false},
		{IReturn, true, false, false, true},
		{ReturnVoid, true, false, false, true},
		{Halt, true, false, false, false},
		{ILoad, false, false, false, false},
	}
	for _, c := range cases {
		if got := c.op.IsTerminator(); got != c.term {
			t.Errorf("%s.IsTerminator() = %v, want %v", c.op, got, c.term)
		}
		if got := c.op.IsBranch(); got != c.branch {
			t.Errorf("%s.IsBranch() = %v, want %v", c.op, got, c.branch)
		}
		if got := c.op.IsCall(); got != c.call {
			t.Errorf("%s.IsCall() = %v, want %v", c.op, got, c.call)
		}
		if got := c.op.IsReturn(); got != c.ret {
			t.Errorf("%s.IsReturn() = %v, want %v", c.op, got, c.ret)
		}
	}
}

func TestEncodeDecodeSimpleSequence(t *testing.T) {
	ins := []Instr{
		{Op: IConst, A: 42},
		{Op: IConst, A: -7},
		{Op: IAdd},
		{Op: FConst, F: 3.25},
		{Op: ILoad, A: 3},
		{Op: IInc, A: 2, B: -1},
		{Op: NewArray, A: ElemByte},
		{Op: ReturnVoid},
	}
	code, err := Encode(ins)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, err := Decode(code)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(got) != len(ins) {
		t.Fatalf("decoded %d instructions, want %d", len(got), len(ins))
	}
	for i := range ins {
		if !got[i].Equal(ins[i]) {
			t.Errorf("instruction %d: got %v, want %v", i, got[i], ins[i])
		}
	}
}

func TestEncodeDecodeSwitches(t *testing.T) {
	// Build: tableswitch + lookupswitch + targets, with valid boundaries.
	e := NewEncoder()
	// pc 0: tableswitch low=5, default=X, targets=[X, X, X] (patched later)
	tsPC, err := e.Emit(Instr{Op: TableSwitch, A: 5, Targets: make([]uint32, 3)})
	if err != nil {
		t.Fatal(err)
	}
	// lookupswitch default=Y keys 10:-, -3:-
	lsPC, err := e.Emit(Instr{Op: LookupSwitch, Keys: []int32{10, -3}, Targets: make([]uint32, 2)})
	if err != nil {
		t.Fatal(err)
	}
	endPC, err := e.Emit(Instr{Op: ReturnVoid})
	if err != nil {
		t.Fatal(err)
	}
	// Patch all targets to the return.
	if err := e.FixupSwitchTarget(tsPC, -1, uint32(lsPC)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := e.FixupSwitchTarget(tsPC, i, endPC); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.FixupSwitchTarget(lsPC, -1, endPC); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := e.FixupSwitchTarget(lsPC, i, endPC); err != nil {
			t.Fatal(err)
		}
	}

	ins, err := Decode(e.Bytes())
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	ts := ins[0]
	if ts.A != 5 || ts.Dflt != uint32(lsPC) || len(ts.Targets) != 3 {
		t.Errorf("tableswitch decoded wrong: %+v", ts)
	}
	ls := ins[1]
	if ls.Dflt != endPC || len(ls.Keys) != 2 || ls.Keys[0] != 10 || ls.Keys[1] != -3 {
		t.Errorf("lookupswitch decoded wrong: %+v", ls)
	}
	for _, tgt := range append(ts.Targets, ls.Targets...) {
		if tgt != endPC {
			t.Errorf("switch target %d, want %d", tgt, endPC)
		}
	}
}

func TestFixupBranch(t *testing.T) {
	e := NewEncoder()
	pc, err := e.Emit(Instr{Op: Goto, A: 0})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Emit(Instr{Op: ReturnVoid}); err != nil {
		t.Fatal(err)
	}
	if err := e.Fixup(pc, 5); err != nil {
		t.Fatal(err)
	}
	ins, err := Decode(e.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if uint32(ins[0].A) != 5 {
		t.Errorf("patched target = %d, want 5", ins[0].A)
	}
	// Fixing up a non-branch must fail.
	if err := e.Fixup(5, 0); err == nil {
		t.Error("fixup of return succeeded")
	}
	if err := e.Fixup(9999, 0); err == nil {
		t.Error("fixup out of range succeeded")
	}
}

func TestEncodeErrors(t *testing.T) {
	cases := []Instr{
		{Op: Op(200)},                        // invalid opcode
		{Op: ILoad, A: 1 << 17},              // u16 overflow
		{Op: IInc, A: 1, B: 1 << 20},         // i16 overflow
		{Op: NewArray, A: 9},                 // bad elem kind
		{Op: LookupSwitch, Keys: []int32{1}}, // key/target mismatch
	}
	for _, in := range cases {
		if _, err := NewEncoder().Emit(in); err == nil {
			t.Errorf("encoding %v succeeded, want error", in)
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	cases := map[string][]byte{
		"invalid opcode":   {200},
		"truncated iconst": {byte(IConst), 1, 2},
		"truncated fconst": {byte(FConst), 1, 2, 3},
		"bad elem kind":    {byte(NewArray), 9},
		"branch into middle of instruction": MustEncode([]Instr{
			{Op: Goto, A: 2}, // pc 2 is inside the goto itself
			{Op: ReturnVoid},
		}),
	}
	for name, code := range cases {
		if _, err := Decode(code); err == nil {
			t.Errorf("%s: decode succeeded", name)
		}
	}
}

func TestDecodeHugeSwitchRejected(t *testing.T) {
	e := NewEncoder()
	if _, err := e.Emit(Instr{Op: ReturnVoid}); err != nil {
		t.Fatal(err)
	}
	// Hand-craft a tableswitch with an absurd count.
	code := []byte{byte(TableSwitch),
		0, 0, 0, 0, // low
		0, 0, 0, 0, // default
		0xff, 0xff, 0xff, 0x7f, // count
	}
	if _, err := Decode(code); err == nil {
		t.Error("huge tableswitch decoded")
	}
	lcode := []byte{byte(LookupSwitch),
		0, 0, 0, 0, // default
		0xff, 0xff, 0xff, 0x7f, // pair count
	}
	if _, err := Decode(lcode); err == nil {
		t.Error("huge lookupswitch decoded")
	}
}

func TestDisassembleListing(t *testing.T) {
	// Layout: iconst at pc 0 (5 bytes), ifeq at 5 (5), goto at 10 (5),
	// return at 15.
	code := MustEncode([]Instr{
		{Op: IConst, A: 10},
		{Op: IfEq, A: 15},
		{Op: Goto, A: 0},
		{Op: ReturnVoid},
	})
	s, err := Disassemble(code)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"iconst 10", "ifeq @15", "goto @0", "return"} {
		if !strings.Contains(s, want) {
			t.Errorf("disassembly missing %q:\n%s", want, s)
		}
	}
	if _, err := Disassemble([]byte{200}); err == nil {
		t.Error("disassembling garbage succeeded")
	}
}

// randomInstr generates a random valid non-control-flow instruction.
func randomInstr(r *rand.Rand) Instr {
	simple := []Op{
		Nop, IAdd, ISub, IMul, INeg, FAdd, FNeg, Pop, Dup, Swap, DupX1,
		I2F, F2I, FCmpL, FCmpG, ArrayLength, IALoad, BAStore, AConstNull,
	}
	switch r.Intn(6) {
	case 0:
		return Instr{Op: simple[r.Intn(len(simple))]}
	case 1:
		return Instr{Op: IConst, A: int32(r.Uint32())}
	case 2:
		return Instr{Op: FConst, F: math.Float64frombits(r.Uint64())}
	case 3:
		return Instr{Op: ILoad, A: int32(r.Intn(1 << 16))}
	case 4:
		return Instr{Op: IInc, A: int32(r.Intn(1 << 16)), B: int32(r.Intn(1<<16)) - 1<<15}
	default:
		return Instr{Op: NewArray, A: int32(r.Intn(4))}
	}
}

// TestPropertyEncodeDecodeRoundTrip: any randomly generated straight-line
// instruction sequence round-trips through encode/decode exactly.
func TestPropertyEncodeDecodeRoundTrip(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		r := rand.New(rand.NewSource(seed))
		count := int(n%48) + 1
		ins := make([]Instr, 0, count+1)
		for i := 0; i < count; i++ {
			ins = append(ins, randomInstr(r))
		}
		ins = append(ins, Instr{Op: ReturnVoid})
		code, err := Encode(ins)
		if err != nil {
			return false
		}
		got, err := Decode(code)
		if err != nil {
			return false
		}
		if len(got) != len(ins) {
			return false
		}
		pc := uint32(0)
		for i := range ins {
			if !got[i].Equal(ins[i]) {
				return false
			}
			if got[i].PC != pc {
				return false
			}
			pc = got[i].Next()
		}
		return int(pc) == len(code)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestPropertySizeMatchesEncoding: Instr.Size always equals the encoded
// length.
func TestPropertySizeMatchesEncoding(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		in := randomInstr(r)
		code, err := Encode([]Instr{in})
		if err != nil {
			return false
		}
		return in.Size() == uint32(len(code))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestInstrEqualIgnoresPC(t *testing.T) {
	a := Instr{PC: 0, Op: IConst, A: 5}
	b := Instr{PC: 100, Op: IConst, A: 5}
	if !a.Equal(b) {
		t.Error("Equal should ignore PC")
	}
	c := Instr{Op: IConst, A: 6}
	if a.Equal(c) {
		t.Error("Equal missed operand difference")
	}
	nan1 := Instr{Op: FConst, F: math.NaN()}
	nan2 := Instr{Op: FConst, F: math.NaN()}
	if !nan1.Equal(nan2) {
		t.Error("NaN constants with the same bits should be equal")
	}
}

func TestBranchTargets(t *testing.T) {
	g := Instr{Op: Goto, A: 42}
	if tg := g.BranchTargets(); len(tg) != 1 || tg[0] != 42 {
		t.Errorf("goto targets = %v", tg)
	}
	ts := Instr{Op: TableSwitch, A: 0, Dflt: 9, Targets: []uint32{1, 2}}
	if tg := ts.BranchTargets(); len(tg) != 3 || tg[0] != 9 {
		t.Errorf("tableswitch targets = %v", tg)
	}
	add := Instr{Op: IAdd}
	if tg := add.BranchTargets(); tg != nil {
		t.Errorf("iadd targets = %v", tg)
	}
}

// TestFloatToIntDocumentedRule pins the f2i rule LANGUAGE.md states; the
// edge-operand differential in internal/progen holds every engine to it.
func TestFloatToIntDocumentedRule(t *testing.T) {
	for _, c := range []struct {
		f    float64
		want int64
	}{
		{math.NaN(), 0},
		{math.Inf(1), math.MaxInt64},
		{math.Inf(-1), math.MinInt64},
		{1 << 63, math.MaxInt64},
		{-(1 << 63), math.MinInt64},
		{1e300, math.MaxInt64},
		{-1e300, math.MinInt64},
		{-1.9, -1},
		{math.Copysign(0, -1), 0},
		{1 << 53, 1 << 53},
	} {
		if got := FloatToInt(c.f); got != c.want {
			t.Errorf("FloatToInt(%v) = %d, want %d", c.f, got, c.want)
		}
	}
}
