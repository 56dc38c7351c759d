package classfile

import (
	"fmt"

	"repro/internal/analysis/arena"
	"repro/internal/bytecode"
)

// The bytecode verifier: an abstract interpretation of every method over a
// kind lattice (int/float/ref, with conflicting merges collapsing to top)
// as a merge-over-all-paths fixpoint. It checks stack depth bounds and
// balance at joins, operand kinds against the bytecode package's
// stack-effect metadata, branch and switch targets, reference operands,
// locals-initialized-before-use, and reachability. Link runs it on every
// program, so nothing executes unverified, and takes each method's
// MaxStack from it; Verify runs it alone and returns every finding as a
// structured Report (`tracevm lint`, tracevmd's 422 bodies).

// MaxVerifyStack bounds the abstract operand-stack depth; any path that
// exceeds it is rejected with RuleStackOverflow. The interpreter sizes its
// frames from the MaxStack this verifier computes, so the ceiling bounds
// every frame.
const MaxVerifyStack = 4096

// maxVerifyLocals bounds MaxLocals; slot operands are u16 so nothing above
// this is addressable anyway, and it keeps adversarial (fuzzed) headers from
// forcing huge allocations.
const maxVerifyLocals = 1 << 16

// Verify symbolically executes every bytecode method of the program and
// returns a Report of all findings. It accepts linked and unlinked programs
// alike — symbolic references are resolved by name when the linker has not
// filled them in — so malformed inputs can be analyzed even when linking
// would refuse them. Verification of a method stops at its first rejecting
// finding; unreachable-code warnings are only computed for clean methods.
// Verify does not modify the program.
func Verify(prog *Program) *Report { return verify(prog, false) }

// verify runs the verifier over every method. Linking (link set) skips the
// advisory unreachable-block scan and sets each accepted method's MaxStack
// to the deepest abstract operand stack of any of its instructions.
func verify(prog *Program, link bool) *Report {
	v := &mverify{rep: &Report{}, res: newResolver(prog), link: link}
	for _, c := range prog.Classes {
		for _, m := range c.Methods {
			v.verifyMethod(c, m)
			if link && !v.stopped {
				m.MaxStack = v.depth
			}
		}
	}
	return v.rep
}

// resolver resolves symbolic class/method/field names without requiring a
// linked program. Lookup walks the superclass chain by name with a visited
// set, so even cyclic (malformed) hierarchies terminate.
type resolver struct {
	prog   *Program
	byName map[string]*Class
}

func newResolver(p *Program) *resolver {
	r := &resolver{prog: p, byName: make(map[string]*Class, len(p.Classes))}
	for _, c := range p.Classes {
		if _, dup := r.byName[c.Name]; !dup {
			r.byName[c.Name] = c
		}
	}
	return r
}

func (r *resolver) methodNamed(className, name string) *Method {
	seen := map[*Class]bool{}
	for c := r.byName[className]; c != nil && !seen[c]; c = r.byName[c.SuperName] {
		seen[c] = true
		for _, m := range c.Methods {
			if m.Name == name {
				return m
			}
		}
	}
	return nil
}

func (r *resolver) fieldNamed(className, name string) *Field {
	seen := map[*Class]bool{}
	for c := r.byName[className]; c != nil && !seen[c]; c = r.byName[c.SuperName] {
		seen[c] = true
		for _, f := range c.Fields {
			if f.Name == name {
				return f
			}
		}
	}
	return nil
}

// lslot is the abstract state of one local variable slot.
type lslot struct {
	kind bytecode.ValKind
	init bool
}

// absState is the abstract machine state at one instruction boundary.
type absState struct {
	stack  []bytecode.ValKind
	locals []lslot
}

// copyFrom overwrites st with src, reusing st's backing arrays.
func (st *absState) copyFrom(src *absState) {
	st.stack = append(st.stack[:0], src.stack...)
	st.locals = append(st.locals[:0], src.locals...)
}

// mverify verifies one method at a time; Verify reuses one mverify for
// every method so its scratch and arena memory is allocated once.
//
// step works on the scratch state cur. A state is stored only by flowTo's
// first sighting of an instruction, which copies it into the pointer-free
// kinds/slots arenas; flowTo never mutates its argument.
type mverify struct {
	rep  *Report
	res  *resolver
	link bool
	name string
	m    *Method
	// depth is the deepest abstract operand stack of the method so far.
	depth int

	ins   []bytecode.Instr
	idxOf map[uint32]int // instruction start pc -> index

	states  []absState
	seen    []bool
	work    []int
	stopped bool

	cur   absState
	exc   [1]bytecode.ValKind // a handler entry's stack: the thrown reference
	kinds arena.Arena[bytecode.ValKind]
	slots arena.Arena[lslot]
}

func (v *mverify) fail(pc uint32, rule, format string, args ...any) {
	if v.stopped {
		return
	}
	v.rep.Findings = append(v.rep.Findings, Finding{
		Method:  v.name,
		PC:      pc,
		Rule:    rule,
		Message: fmt.Sprintf(format, args...),
	})
	v.stopped = true
}

func (v *mverify) warn(pc uint32, rule, format string, args ...any) {
	v.rep.Findings = append(v.rep.Findings, Finding{
		Method:  v.name,
		PC:      pc,
		Rule:    rule,
		Message: fmt.Sprintf(format, args...),
		Warn:    true,
	})
}

func typeKind(t Type) bytecode.ValKind {
	switch t {
	case TInt:
		return bytecode.KInt
	case TFloat:
		return bytecode.KFloat
	case TRef:
		return bytecode.KRef
	}
	return bytecode.KAny
}

func qname(c *Class, m *Method) string {
	if m.Class != nil {
		return m.QName()
	}
	return c.Name + "." + m.Name
}

func (v *mverify) verifyMethod(c *Class, m *Method) {
	v.name, v.m, v.stopped, v.depth = qname(c, m), m, false, 0
	if m.Abstract || m.Native != "" {
		return // no bytecode to verify; body rules are the linker's
	}
	if len(m.Code) == 0 {
		v.fail(0, RuleTruncatedCode, "method has no code")
		return
	}
	if m.MaxLocals < 0 || m.MaxLocals > maxVerifyLocals {
		v.fail(0, RuleLocalOutOfRange, "MaxLocals %d out of range", m.MaxLocals)
		return
	}
	if m.MaxLocals < m.NArgs() {
		v.fail(0, RuleLocalOutOfRange, "MaxLocals %d cannot hold %d arguments", m.MaxLocals, m.NArgs())
		return
	}
	// Decode instruction by instruction (not bytecode.Decode, which folds
	// target validation into decoding) so target errors surface under their
	// own rule below.
	ins := v.ins[:0]
	for pc := uint32(0); int(pc) < len(m.Code); {
		in, err := bytecode.DecodeAt(m.Code, pc)
		if err != nil {
			v.fail(pc, RuleTruncatedCode, "%v", err)
			return
		}
		ins = append(ins, in)
		pc = in.Next()
	}
	v.ins = ins
	if len(ins) == 0 {
		v.fail(0, RuleTruncatedCode, "method decodes to no instructions")
		return
	}
	if v.idxOf == nil {
		v.idxOf = make(map[uint32]int, len(ins))
	}
	clear(v.idxOf)
	for i, in := range ins {
		v.idxOf[in.PC] = i
	}

	// The last instruction must not fall through (or need a return site).
	last := ins[len(ins)-1]
	switch bytecode.InfoOf(last.Op).Flow {
	case bytecode.FlowGoto, bytecode.FlowReturn, bytecode.FlowSwitch,
		bytecode.FlowHalt, bytecode.FlowThrow:
	default:
		v.fail(last.PC, RuleFallOffEnd, "control can run past the last instruction (%s)", last.Op)
		return
	}

	// Every branch and switch target must land on an instruction boundary.
	for _, in := range ins {
		for _, t := range in.BranchTargets() {
			if _, ok := v.idxOf[t]; !ok {
				v.fail(in.PC, RuleBadJumpTarget, "%s targets pc %d, which is not an instruction boundary", in.Op, t)
				return
			}
		}
	}

	// Exception table sanity: valid ranges, boundaries on instructions,
	// catch classes in range.
	codeEnd := uint32(len(m.Code))
	for i := range m.Handlers {
		h := &m.Handlers[i]
		if h.StartPC >= h.EndPC || h.EndPC > codeEnd {
			v.fail(h.StartPC, RuleBadJumpTarget, "handler %d has bad range [%d, %d)", i, h.StartPC, h.EndPC)
			return
		}
		if _, ok := v.idxOf[h.StartPC]; !ok {
			v.fail(h.StartPC, RuleBadJumpTarget, "handler %d starts mid-instruction", i)
			return
		}
		if _, ok := v.idxOf[h.HandlerPC]; !ok {
			v.fail(h.HandlerPC, RuleBadJumpTarget, "handler %d targets pc %d, which is not an instruction boundary", i, h.HandlerPC)
			return
		}
		if h.ClassIdx != -1 && (h.ClassIdx < 0 || int(h.ClassIdx) >= len(v.res.prog.Classes)) {
			v.fail(h.StartPC, RuleBadRefIndex, "handler %d catch class %d out of range (%d classes)", i, h.ClassIdx, len(v.res.prog.Classes))
			return
		}
	}

	// Entry state: receiver and parameters initialized, everything else
	// uninitialized.
	entry := &v.cur
	entry.stack = entry.stack[:0]
	entry.locals = arena.Zeroed(entry.locals, m.MaxLocals)
	slot := 0
	if !m.Static {
		entry.locals[slot] = lslot{kind: bytecode.KRef, init: true}
		slot++
	}
	for _, p := range m.Params {
		entry.locals[slot] = lslot{kind: typeKind(p), init: true}
		slot++
	}

	v.states = arena.Zeroed(v.states, len(ins))
	v.seen = arena.Zeroed(v.seen, len(ins))
	v.work = v.work[:0]
	v.kinds.Reset()
	v.slots.Reset()
	v.flowTo(0, entry)

	for len(v.work) > 0 && !v.stopped {
		i := v.work[len(v.work)-1]
		v.work = v.work[:len(v.work)-1]
		v.step(i)
	}
	if v.stopped || v.link {
		return
	}

	// Unreachable-block warnings: any never-visited leader starts a dead
	// block.
	leaders := Leaders(m, ins)
	for i, in := range ins {
		if !v.seen[i] && leaders[in.PC] {
			v.warn(in.PC, RuleUnreachableBlock, "block at pc %d is unreachable", in.PC)
		}
	}
}

// push grows the abstract stack, enforcing the depth ceiling.
func (v *mverify) push(st *absState, pc uint32, k bytecode.ValKind) {
	if len(st.stack) >= MaxVerifyStack {
		v.fail(pc, RuleStackOverflow, "operand stack exceeds %d values", MaxVerifyStack)
		return
	}
	st.stack = append(st.stack, k)
	v.depth = max(v.depth, len(st.stack))
}

// pop removes the top of the abstract stack and checks its kind. what names
// the operand for diagnostics.
func (v *mverify) pop(st *absState, pc uint32, need bytecode.ValKind, what string) bytecode.ValKind {
	if len(st.stack) == 0 {
		v.fail(pc, RuleStackUnderflow, "%s pops an empty stack", what)
		return bytecode.KAny
	}
	k := st.stack[len(st.stack)-1]
	st.stack = st.stack[:len(st.stack)-1]
	if need != bytecode.KAny && k != need {
		if k == bytecode.KAny {
			v.fail(pc, RuleKindMismatch, "%s requires %s, found a value whose kind conflicts between paths", what, need)
		} else {
			v.fail(pc, RuleKindMismatch, "%s requires %s, found %s", what, need, k)
		}
	}
	return k
}

// popAs is pop for an operand whose diagnostic name needs formatting: name
// is called only when the pop is a finding, so a clean pop allocates
// nothing.
func (v *mverify) popAs(st *absState, pc uint32, need bytecode.ValKind, name func() string) bytecode.ValKind {
	what := ""
	if n := len(st.stack); n == 0 || (need != bytecode.KAny && st.stack[n-1] != need) {
		what = name()
	}
	return v.pop(st, pc, need, what)
}

// readLocal checks an initialized, kind-compatible read of a local slot.
func (v *mverify) readLocal(st *absState, in bytecode.Instr, need bytecode.ValKind) bytecode.ValKind {
	slot := int(uint16(in.A))
	if slot >= len(st.locals) {
		v.fail(in.PC, RuleLocalOutOfRange, "%s slot %d out of range (max %d)", in.Op, slot, len(st.locals))
		return bytecode.KAny
	}
	l := st.locals[slot]
	if !l.init {
		v.fail(in.PC, RuleUninitLocal, "%s reads local %d before any path initializes it", in.Op, slot)
		return bytecode.KAny
	}
	if need != bytecode.KAny && l.kind != need {
		if l.kind == bytecode.KAny {
			v.fail(in.PC, RuleKindMismatch, "%s requires local %d to be %s, but its kind conflicts between paths", in.Op, slot, need)
		} else {
			v.fail(in.PC, RuleKindMismatch, "%s requires local %d to be %s, found %s", in.Op, slot, need, l.kind)
		}
	}
	return l.kind
}

// writeLocal records a kind-defining write to a local slot.
func (v *mverify) writeLocal(st *absState, in bytecode.Instr, k bytecode.ValKind) {
	slot := int(uint16(in.A))
	if slot >= len(st.locals) {
		v.fail(in.PC, RuleLocalOutOfRange, "%s slot %d out of range (max %d)", in.Op, slot, len(st.locals))
		return
	}
	st.locals[slot] = lslot{kind: k, init: true}
}

// flowTo merges the state st into the entry of instruction j, queueing it
// when anything changed. It never mutates st or anything st's slices point
// at: it copies st into the arenas on first sight and only reads it when
// merging, so callers may pass the scratch state and aliased locals.
func (v *mverify) flowTo(j int, st *absState) {
	if v.stopped {
		return
	}
	if !v.seen[j] {
		v.states[j] = absState{stack: v.kinds.Copy(st.stack), locals: v.slots.Copy(st.locals)}
		v.seen[j] = true
		v.work = append(v.work, j)
		return
	}
	dst := &v.states[j]
	if len(dst.stack) != len(st.stack) {
		v.fail(v.ins[j].PC, RuleStackImbalance,
			"paths join at pc %d with stack depths %d and %d", v.ins[j].PC, len(dst.stack), len(st.stack))
		return
	}
	changed := false
	for i := range dst.stack {
		mk := bytecode.MergeKind(dst.stack[i], st.stack[i])
		if mk != dst.stack[i] {
			dst.stack[i] = mk
			changed = true
		}
	}
	for i := range dst.locals {
		a, b := dst.locals[i], st.locals[i]
		merged := lslot{init: a.init && b.init, kind: bytecode.MergeKind(a.kind, b.kind)}
		if !merged.init {
			merged.kind = bytecode.KAny
		}
		if merged != a {
			dst.locals[i] = merged
			changed = true
		}
	}
	if changed {
		v.work = append(v.work, j)
	}
}

// step interprets instruction i over its merged entry state and propagates
// the result to every successor, including exception-handler entries.
func (v *mverify) step(i int) {
	in := v.ins[i]
	st := &v.cur
	st.copyFrom(&v.states[i])

	// Any instruction inside a protected range can transfer to the handler:
	// entry state there is the single thrown reference over current locals.
	for _, h := range v.m.Handlers {
		if h.Covers(in.PC) {
			v.exc[0] = bytecode.KRef
			v.flowTo(v.idxOf[h.HandlerPC], &absState{stack: v.exc[:], locals: st.locals})
			if v.stopped {
				return
			}
		}
	}

	switch in.Op {
	case bytecode.ILoad:
		v.readLocal(st, in, bytecode.KInt)
		v.push(st, in.PC, bytecode.KInt)
	case bytecode.FLoad:
		v.readLocal(st, in, bytecode.KFloat)
		v.push(st, in.PC, bytecode.KFloat)
	case bytecode.ALoad:
		v.readLocal(st, in, bytecode.KRef)
		v.push(st, in.PC, bytecode.KRef)
	case bytecode.IStore:
		v.pop(st, in.PC, bytecode.KInt, "istore")
		v.writeLocal(st, in, bytecode.KInt)
	case bytecode.FStore:
		v.pop(st, in.PC, bytecode.KFloat, "fstore")
		v.writeLocal(st, in, bytecode.KFloat)
	case bytecode.AStore:
		v.pop(st, in.PC, bytecode.KRef, "astore")
		v.writeLocal(st, in, bytecode.KRef)
	case bytecode.IInc:
		v.readLocal(st, in, bytecode.KInt)

	case bytecode.SConst:
		if int(uint16(in.A)) >= len(v.res.prog.Strings) {
			v.fail(in.PC, RuleBadRefIndex, "sconst index %d out of range (%d strings)", uint16(in.A), len(v.res.prog.Strings))
			return
		}
		v.push(st, in.PC, bytecode.KRef)

	case bytecode.New, bytecode.InstanceOf, bytecode.CheckCast:
		if int(uint16(in.A)) >= len(v.res.prog.Classes) {
			v.fail(in.PC, RuleBadRefIndex, "%s class index %d out of range (%d classes)", in.Op, uint16(in.A), len(v.res.prog.Classes))
			return
		}
		pops, pushes, _ := bytecode.StackKinds(in.Op)
		for _, k := range pops {
			v.pop(st, in.PC, k, in.Op.String())
		}
		for _, k := range pushes {
			v.push(st, in.PC, k)
		}

	case bytecode.Dup:
		k := v.pop(st, in.PC, bytecode.KAny, "dup")
		v.push(st, in.PC, k)
		v.push(st, in.PC, k)
	case bytecode.DupX1:
		a := v.pop(st, in.PC, bytecode.KAny, "dup_x1")
		b := v.pop(st, in.PC, bytecode.KAny, "dup_x1")
		v.push(st, in.PC, a)
		v.push(st, in.PC, b)
		v.push(st, in.PC, a)
	case bytecode.Swap:
		a := v.pop(st, in.PC, bytecode.KAny, "swap")
		b := v.pop(st, in.PC, bytecode.KAny, "swap")
		v.push(st, in.PC, a)
		v.push(st, in.PC, b)

	case bytecode.InvokeStatic, bytecode.InvokeVirtual, bytecode.InvokeSpecial:
		v.stepInvoke(st, in)

	case bytecode.GetField, bytecode.PutField, bytecode.GetStatic, bytecode.PutStatic:
		v.stepField(st, in)

	case bytecode.ReturnVoid:
		if v.m.Ret != TVoid {
			v.fail(in.PC, RuleKindMismatch, "return in method returning %s", v.m.Ret)
			return
		}
	case bytecode.IReturn, bytecode.FReturn, bytecode.AReturn:
		want := TRef
		switch in.Op {
		case bytecode.IReturn:
			want = TInt
		case bytecode.FReturn:
			want = TFloat
		}
		if v.m.Ret != want {
			v.fail(in.PC, RuleKindMismatch, "%s in method returning %s", in.Op, v.m.Ret)
			return
		}
		v.pop(st, in.PC, typeKind(want), in.Op.String())

	default:
		pops, pushes, ok := bytecode.StackKinds(in.Op)
		if !ok {
			v.fail(in.PC, RuleTruncatedCode, "invalid opcode %d", in.Op)
			return
		}
		for _, k := range pops {
			v.pop(st, in.PC, k, in.Op.String())
		}
		for _, k := range pushes {
			v.push(st, in.PC, k)
		}
	}
	if v.stopped {
		return
	}

	// Returns must leave an empty stack (the frame is discarded; leftover
	// values indicate an imbalance the dispatcher would silently drop).
	switch bytecode.InfoOf(in.Op).Flow {
	case bytecode.FlowReturn, bytecode.FlowHalt:
		if len(st.stack) != 0 {
			v.fail(in.PC, RuleStackImbalance, "%s leaves %d values on the stack", in.Op, len(st.stack))
		}
		return
	case bytecode.FlowThrow:
		return
	case bytecode.FlowGoto:
		v.flowTo(v.idxOf[uint32(in.A)], st)
		return
	case bytecode.FlowCond:
		v.flowTo(v.idxOf[uint32(in.A)], st)
		v.flowTo(i+1, st)
		return
	case bytecode.FlowSwitch:
		v.flowTo(v.idxOf[in.Dflt], st)
		for _, t := range in.Targets {
			v.flowTo(v.idxOf[t], st)
		}
		return
	default: // FlowNext, FlowCall: fall through to the next instruction
		v.flowTo(i+1, st)
	}
}

func (v *mverify) stepInvoke(st *absState, in bytecode.Instr) {
	prog := v.res.prog
	idx := int(uint16(in.A))
	if idx >= len(prog.MethodRefs) {
		v.fail(in.PC, RuleBadRefIndex, "%s method ref %d out of range (%d refs)", in.Op, idx, len(prog.MethodRefs))
		return
	}
	ref := &prog.MethodRefs[idx]
	want := RefSpecial
	switch in.Op {
	case bytecode.InvokeStatic:
		want = RefStatic
	case bytecode.InvokeVirtual:
		want = RefVirtual
	}
	if ref.Kind != want {
		v.fail(in.PC, RuleBadRefIndex, "%s uses %s method ref %q", in.Op, ref.Kind, ref.Name)
		return
	}
	target := ref.Method
	if target == nil {
		target = v.res.methodNamed(ref.ClassName, ref.Name)
	}
	if target == nil {
		v.fail(in.PC, RuleBadRefIndex, "%s: no method %s.%s", in.Op, ref.ClassName, ref.Name)
		return
	}
	if ref.Kind != RefStatic && target.Static {
		v.fail(in.PC, RuleBadRefIndex, "%s ref to static method %s.%s", ref.Kind, ref.ClassName, ref.Name)
		return
	}
	if ref.Kind == RefStatic && !target.Static {
		v.fail(in.PC, RuleBadRefIndex, "static ref to instance method %s.%s", ref.ClassName, ref.Name)
		return
	}
	// Arguments are popped last-parameter first, then the receiver.
	for pi := len(target.Params) - 1; pi >= 0; pi-- {
		v.popAs(st, in.PC, typeKind(target.Params[pi]), func() string {
			return fmt.Sprintf("%s %s.%s argument %d", in.Op, ref.ClassName, ref.Name, pi)
		})
		if v.stopped {
			return
		}
	}
	if ref.Kind != RefStatic {
		v.popAs(st, in.PC, bytecode.KRef, func() string {
			return fmt.Sprintf("%s %s.%s receiver", in.Op, ref.ClassName, ref.Name)
		})
	}
	if v.stopped {
		return
	}
	if target.Ret != TVoid {
		v.push(st, in.PC, typeKind(target.Ret))
	}
}

func (v *mverify) stepField(st *absState, in bytecode.Instr) {
	prog := v.res.prog
	idx := int(uint16(in.A))
	if idx >= len(prog.FieldRefs) {
		v.fail(in.PC, RuleBadRefIndex, "%s field ref %d out of range (%d refs)", in.Op, idx, len(prog.FieldRefs))
		return
	}
	ref := &prog.FieldRefs[idx]
	wantStatic := in.Op == bytecode.GetStatic || in.Op == bytecode.PutStatic
	if ref.Static != wantStatic {
		v.fail(in.PC, RuleBadRefIndex, "%s uses mismatched field ref %q (static=%v)", in.Op, ref.Name, ref.Static)
		return
	}
	f := ref.Field
	if f == nil {
		f = v.res.fieldNamed(ref.ClassName, ref.Name)
	}
	if f == nil {
		v.fail(in.PC, RuleBadRefIndex, "%s: no field %s.%s", in.Op, ref.ClassName, ref.Name)
		return
	}
	fk := typeKind(f.Type)
	object := func() string { return fmt.Sprintf("%s %s.%s object", in.Op, ref.ClassName, ref.Name) }
	value := func() string { return fmt.Sprintf("%s %s.%s value", in.Op, ref.ClassName, ref.Name) }
	switch in.Op {
	case bytecode.GetField:
		v.popAs(st, in.PC, bytecode.KRef, object)
		if !v.stopped {
			v.push(st, in.PC, fk)
		}
	case bytecode.PutField:
		v.popAs(st, in.PC, fk, value)
		if !v.stopped {
			v.popAs(st, in.PC, bytecode.KRef, object)
		}
	case bytecode.GetStatic:
		v.push(st, in.PC, fk)
	case bytecode.PutStatic:
		v.popAs(st, in.PC, fk, value)
	}
}
