package bytecode

// ValKind classifies an operand-stack value or local slot for the static
// verifier: the machine's three value kinds plus KAny, which doubles as the
// lattice top (a merge of conflicting kinds) and as the "any kind accepted"
// wildcard in stack-effect requirements.
type ValKind uint8

const (
	KAny ValKind = iota
	KInt
	KFloat
	KRef
)

// String returns a human-readable name for the kind.
func (k ValKind) String() string {
	switch k {
	case KInt:
		return "int"
	case KFloat:
		return "float"
	case KRef:
		return "ref"
	}
	return "any"
}

// MergeKind joins two kinds in the verifier lattice: equal kinds survive,
// conflicting kinds collapse to KAny (top), which no typed instruction
// accepts.
func MergeKind(a, b ValKind) ValKind {
	if a == b {
		return a
	}
	return KAny
}

// ElemValKind maps an array element kind (ElemInt..ElemByte) to the kind of
// value the typed array ops load and store. Byte arrays traffic in ints.
func ElemValKind(elem int32) (ValKind, bool) {
	switch elem {
	case ElemInt, ElemByte:
		return KInt, true
	case ElemFloat:
		return KFloat, true
	case ElemRef:
		return KRef, true
	}
	return KAny, false
}

// stackKinds is the stack effect of every opcode: the package's one
// per-op stack table. Pops lists the popped kinds top-of-stack first;
// Pushes lists the pushed kinds bottom first. The counts are exact for
// every opcode but the calls, whose arity comes from the method ref (ok ==
// false). KAny marks a slot whose kind the opcode does not fix: a typed
// verifier refines the dup family, swap and field access from the stack or
// the field ref.
var stackKinds = [NumOps]struct {
	pops   []ValKind
	pushes []ValKind
	ok     bool
}{
	Nop:        {nil, nil, true},
	IConst:     {nil, []ValKind{KInt}, true},
	FConst:     {nil, []ValKind{KFloat}, true},
	SConst:     {nil, []ValKind{KRef}, true},
	AConstNull: {nil, []ValKind{KRef}, true},

	ILoad:  {nil, []ValKind{KInt}, true},
	IStore: {[]ValKind{KInt}, nil, true},
	FLoad:  {nil, []ValKind{KFloat}, true},
	FStore: {[]ValKind{KFloat}, nil, true},
	ALoad:  {nil, []ValKind{KRef}, true},
	AStore: {[]ValKind{KRef}, nil, true},
	IInc:   {nil, nil, true},

	Pop: {[]ValKind{KAny}, nil, true},
	// Dup, DupX1 and Swap replicate or permute whatever is on the stack.
	Dup:   {[]ValKind{KAny}, []ValKind{KAny, KAny}, true},
	DupX1: {[]ValKind{KAny, KAny}, []ValKind{KAny, KAny, KAny}, true},
	Swap:  {[]ValKind{KAny, KAny}, []ValKind{KAny, KAny}, true},

	IAdd:  {[]ValKind{KInt, KInt}, []ValKind{KInt}, true},
	ISub:  {[]ValKind{KInt, KInt}, []ValKind{KInt}, true},
	IMul:  {[]ValKind{KInt, KInt}, []ValKind{KInt}, true},
	IDiv:  {[]ValKind{KInt, KInt}, []ValKind{KInt}, true},
	IRem:  {[]ValKind{KInt, KInt}, []ValKind{KInt}, true},
	INeg:  {[]ValKind{KInt}, []ValKind{KInt}, true},
	IShl:  {[]ValKind{KInt, KInt}, []ValKind{KInt}, true},
	IShr:  {[]ValKind{KInt, KInt}, []ValKind{KInt}, true},
	IUshr: {[]ValKind{KInt, KInt}, []ValKind{KInt}, true},
	IAnd:  {[]ValKind{KInt, KInt}, []ValKind{KInt}, true},
	IOr:   {[]ValKind{KInt, KInt}, []ValKind{KInt}, true},
	IXor:  {[]ValKind{KInt, KInt}, []ValKind{KInt}, true},

	FAdd: {[]ValKind{KFloat, KFloat}, []ValKind{KFloat}, true},
	FSub: {[]ValKind{KFloat, KFloat}, []ValKind{KFloat}, true},
	FMul: {[]ValKind{KFloat, KFloat}, []ValKind{KFloat}, true},
	FDiv: {[]ValKind{KFloat, KFloat}, []ValKind{KFloat}, true},
	FRem: {[]ValKind{KFloat, KFloat}, []ValKind{KFloat}, true},
	FNeg: {[]ValKind{KFloat}, []ValKind{KFloat}, true},

	I2F: {[]ValKind{KInt}, []ValKind{KFloat}, true},
	F2I: {[]ValKind{KFloat}, []ValKind{KInt}, true},

	FCmpL: {[]ValKind{KFloat, KFloat}, []ValKind{KInt}, true},
	FCmpG: {[]ValKind{KFloat, KFloat}, []ValKind{KInt}, true},

	Goto:      {nil, nil, true},
	IfEq:      {[]ValKind{KInt}, nil, true},
	IfNe:      {[]ValKind{KInt}, nil, true},
	IfLt:      {[]ValKind{KInt}, nil, true},
	IfGe:      {[]ValKind{KInt}, nil, true},
	IfGt:      {[]ValKind{KInt}, nil, true},
	IfLe:      {[]ValKind{KInt}, nil, true},
	IfICmpEq:  {[]ValKind{KInt, KInt}, nil, true},
	IfICmpNe:  {[]ValKind{KInt, KInt}, nil, true},
	IfICmpLt:  {[]ValKind{KInt, KInt}, nil, true},
	IfICmpGe:  {[]ValKind{KInt, KInt}, nil, true},
	IfICmpGt:  {[]ValKind{KInt, KInt}, nil, true},
	IfICmpLe:  {[]ValKind{KInt, KInt}, nil, true},
	IfACmpEq:  {[]ValKind{KRef, KRef}, nil, true},
	IfACmpNe:  {[]ValKind{KRef, KRef}, nil, true},
	IfNull:    {[]ValKind{KRef}, nil, true},
	IfNonNull: {[]ValKind{KRef}, nil, true},

	TableSwitch:  {[]ValKind{KInt}, nil, true},
	LookupSwitch: {[]ValKind{KInt}, nil, true},

	// Calls pop their arguments (arity and kinds come from the method ref)
	// and push the return value; the verifier resolves the reference.
	InvokeStatic:  {nil, nil, false},
	InvokeVirtual: {nil, nil, false},
	InvokeSpecial: {nil, nil, false},
	ReturnVoid:    {nil, nil, true},
	IReturn:       {[]ValKind{KInt}, nil, true},
	FReturn:       {[]ValKind{KFloat}, nil, true},
	AReturn:       {[]ValKind{KRef}, nil, true},

	New: {nil, []ValKind{KRef}, true},
	// Field access pushes or pops the referenced field's kind.
	GetField:   {[]ValKind{KRef}, []ValKind{KAny}, true},
	PutField:   {[]ValKind{KAny, KRef}, nil, true},
	GetStatic:  {nil, []ValKind{KAny}, true},
	PutStatic:  {[]ValKind{KAny}, nil, true},
	InstanceOf: {[]ValKind{KRef}, []ValKind{KInt}, true},
	CheckCast:  {[]ValKind{KRef}, []ValKind{KRef}, true},

	NewArray:    {[]ValKind{KInt}, []ValKind{KRef}, true},
	ArrayLength: {[]ValKind{KRef}, []ValKind{KInt}, true},
	IALoad:      {[]ValKind{KInt, KRef}, []ValKind{KInt}, true},
	IAStore:     {[]ValKind{KInt, KInt, KRef}, nil, true},
	FALoad:      {[]ValKind{KInt, KRef}, []ValKind{KFloat}, true},
	FAStore:     {[]ValKind{KFloat, KInt, KRef}, nil, true},
	AALoad:      {[]ValKind{KInt, KRef}, []ValKind{KRef}, true},
	AAStore:     {[]ValKind{KRef, KInt, KRef}, nil, true},
	BALoad:      {[]ValKind{KInt, KRef}, []ValKind{KInt}, true},
	BAStore:     {[]ValKind{KInt, KInt, KRef}, nil, true},

	Halt:  {nil, nil, true},
	Throw: {[]ValKind{KRef}, nil, true},
}

// StackKinds returns the typed stack effect of an opcode: the kinds it pops
// (top-of-stack first) and pushes (bottom first). ok is false only for the
// three invokes, whose arity a verifier resolves through the method ref,
// and for out-of-range opcodes, which return (nil, nil, false).
func StackKinds(op Op) (pops, pushes []ValKind, ok bool) {
	if int(op) >= NumOps {
		return nil, nil, false
	}
	e := stackKinds[op]
	return e.pops, e.pushes, e.ok
}
