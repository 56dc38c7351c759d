package bytecode

// OperandKind describes how an opcode's operands are encoded in the
// instruction stream.
type OperandKind uint8

const (
	// KindNone: no operands.
	KindNone OperandKind = iota
	// KindU16: one 2-byte unsigned operand (local slot or table index) in A.
	KindU16
	// KindI32: one 4-byte signed operand in A.
	KindI32
	// KindF64: one 8-byte float operand in F.
	KindF64
	// KindBranch: one 4-byte absolute target PC in A.
	KindBranch
	// KindIInc: 2-byte unsigned slot in A, 2-byte signed delta in B.
	KindIInc
	// KindElem: one 1-byte array element kind in A.
	KindElem
	// KindTableSwitch: i32 low (A), u32 default (Dflt), u32 count, then
	// count u32 targets.
	KindTableSwitch
	// KindLookupSwitch: u32 default (Dflt), u32 count, then count
	// (i32 key, u32 target) pairs.
	KindLookupSwitch
)

// Flow describes an opcode's role in control flow; the CFG builder and the
// dispatch engines use it to delimit basic blocks.
type Flow uint8

const (
	// FlowNext: falls through to the next instruction.
	FlowNext Flow = iota
	// FlowGoto: unconditional intraprocedural jump.
	FlowGoto
	// FlowCond: two-way conditional branch (taken target + fallthrough).
	FlowCond
	// FlowSwitch: multiway branch.
	FlowSwitch
	// FlowCall: method invocation; control enters the callee and resumes at
	// the following instruction. Calls terminate basic blocks because the
	// direct-threaded-inlining model treats invokes as non-inlinable.
	FlowCall
	// FlowReturn: returns to the caller.
	FlowReturn
	// FlowHalt: stops the machine.
	FlowHalt
	// FlowThrow: raises an exception; the successor is the dynamically
	// resolved handler (or program termination), never a static edge.
	FlowThrow
)

// Info is the static metadata for one opcode.
type Info struct {
	Name    string
	Operand OperandKind
	Flow    Flow
}

var infos = [NumOps]Info{
	Nop:        {"nop", KindNone, FlowNext},
	IConst:     {"iconst", KindI32, FlowNext},
	FConst:     {"fconst", KindF64, FlowNext},
	SConst:     {"sconst", KindU16, FlowNext},
	AConstNull: {"aconst_null", KindNone, FlowNext},

	ILoad:  {"iload", KindU16, FlowNext},
	IStore: {"istore", KindU16, FlowNext},
	FLoad:  {"fload", KindU16, FlowNext},
	FStore: {"fstore", KindU16, FlowNext},
	ALoad:  {"aload", KindU16, FlowNext},
	AStore: {"astore", KindU16, FlowNext},
	IInc:   {"iinc", KindIInc, FlowNext},

	Pop:   {"pop", KindNone, FlowNext},
	Dup:   {"dup", KindNone, FlowNext},
	DupX1: {"dup_x1", KindNone, FlowNext},
	Swap:  {"swap", KindNone, FlowNext},

	IAdd:  {"iadd", KindNone, FlowNext},
	ISub:  {"isub", KindNone, FlowNext},
	IMul:  {"imul", KindNone, FlowNext},
	IDiv:  {"idiv", KindNone, FlowNext},
	IRem:  {"irem", KindNone, FlowNext},
	INeg:  {"ineg", KindNone, FlowNext},
	IShl:  {"ishl", KindNone, FlowNext},
	IShr:  {"ishr", KindNone, FlowNext},
	IUshr: {"iushr", KindNone, FlowNext},
	IAnd:  {"iand", KindNone, FlowNext},
	IOr:   {"ior", KindNone, FlowNext},
	IXor:  {"ixor", KindNone, FlowNext},

	FAdd: {"fadd", KindNone, FlowNext},
	FSub: {"fsub", KindNone, FlowNext},
	FMul: {"fmul", KindNone, FlowNext},
	FDiv: {"fdiv", KindNone, FlowNext},
	FRem: {"frem", KindNone, FlowNext},
	FNeg: {"fneg", KindNone, FlowNext},

	I2F: {"i2f", KindNone, FlowNext},
	F2I: {"f2i", KindNone, FlowNext},

	FCmpL: {"fcmpl", KindNone, FlowNext},
	FCmpG: {"fcmpg", KindNone, FlowNext},

	Goto:      {"goto", KindBranch, FlowGoto},
	IfEq:      {"ifeq", KindBranch, FlowCond},
	IfNe:      {"ifne", KindBranch, FlowCond},
	IfLt:      {"iflt", KindBranch, FlowCond},
	IfGe:      {"ifge", KindBranch, FlowCond},
	IfGt:      {"ifgt", KindBranch, FlowCond},
	IfLe:      {"ifle", KindBranch, FlowCond},
	IfICmpEq:  {"if_icmpeq", KindBranch, FlowCond},
	IfICmpNe:  {"if_icmpne", KindBranch, FlowCond},
	IfICmpLt:  {"if_icmplt", KindBranch, FlowCond},
	IfICmpGe:  {"if_icmpge", KindBranch, FlowCond},
	IfICmpGt:  {"if_icmpgt", KindBranch, FlowCond},
	IfICmpLe:  {"if_icmple", KindBranch, FlowCond},
	IfACmpEq:  {"if_acmpeq", KindBranch, FlowCond},
	IfACmpNe:  {"if_acmpne", KindBranch, FlowCond},
	IfNull:    {"ifnull", KindBranch, FlowCond},
	IfNonNull: {"ifnonnull", KindBranch, FlowCond},

	TableSwitch:  {"tableswitch", KindTableSwitch, FlowSwitch},
	LookupSwitch: {"lookupswitch", KindLookupSwitch, FlowSwitch},

	InvokeStatic:  {"invokestatic", KindU16, FlowCall},
	InvokeVirtual: {"invokevirtual", KindU16, FlowCall},
	InvokeSpecial: {"invokespecial", KindU16, FlowCall},
	ReturnVoid:    {"return", KindNone, FlowReturn},
	IReturn:       {"ireturn", KindNone, FlowReturn},
	FReturn:       {"freturn", KindNone, FlowReturn},
	AReturn:       {"areturn", KindNone, FlowReturn},

	New:        {"new", KindU16, FlowNext},
	GetField:   {"getfield", KindU16, FlowNext},
	PutField:   {"putfield", KindU16, FlowNext},
	GetStatic:  {"getstatic", KindU16, FlowNext},
	PutStatic:  {"putstatic", KindU16, FlowNext},
	InstanceOf: {"instanceof", KindU16, FlowNext},
	CheckCast:  {"checkcast", KindU16, FlowNext},

	NewArray:    {"newarray", KindElem, FlowNext},
	ArrayLength: {"arraylength", KindNone, FlowNext},
	IALoad:      {"iaload", KindNone, FlowNext},
	IAStore:     {"iastore", KindNone, FlowNext},
	FALoad:      {"faload", KindNone, FlowNext},
	FAStore:     {"fastore", KindNone, FlowNext},
	AALoad:      {"aaload", KindNone, FlowNext},
	AAStore:     {"aastore", KindNone, FlowNext},
	BALoad:      {"baload", KindNone, FlowNext},
	BAStore:     {"bastore", KindNone, FlowNext},

	Halt:  {"halt", KindNone, FlowHalt},
	Throw: {"throw", KindNone, FlowThrow},
}

// InfoOf returns the metadata for op. It returns a zero Info with an empty
// name for out-of-range opcodes.
func InfoOf(op Op) Info {
	if int(op) >= NumOps {
		return Info{}
	}
	return infos[op]
}

// Valid reports whether op is a defined opcode.
func Valid(op Op) bool {
	return int(op) < NumOps && infos[op].Name != ""
}

// String returns the mnemonic for op.
func (op Op) String() string {
	if !Valid(op) {
		return "invalid"
	}
	return infos[op].Name
}

// IsTerminator reports whether op ends a basic block under the
// direct-threaded-inlining model (branches, switches, calls, returns, halt).
func (op Op) IsTerminator() bool {
	switch InfoOf(op).Flow {
	case FlowGoto, FlowCond, FlowSwitch, FlowCall, FlowReturn, FlowHalt, FlowThrow:
		return true
	}
	return false
}

// IsBranch reports whether op is an intraprocedural branch (conditional,
// goto, or switch).
func (op Op) IsBranch() bool {
	switch InfoOf(op).Flow {
	case FlowGoto, FlowCond, FlowSwitch:
		return true
	}
	return false
}

// IsCall reports whether op invokes a method.
func (op Op) IsCall() bool { return InfoOf(op).Flow == FlowCall }

// IsReturn reports whether op returns from a method.
func (op Op) IsReturn() bool { return InfoOf(op).Flow == FlowReturn }

// OpByName resolves a mnemonic to its opcode. The boolean reports success.
func OpByName(name string) (Op, bool) {
	op, ok := opsByName[name]
	return op, ok
}

var opsByName = func() map[string]Op {
	m := make(map[string]Op, NumOps)
	for op, in := range infos {
		if in.Name != "" {
			m[in.Name] = Op(op)
		}
	}
	return m
}()
