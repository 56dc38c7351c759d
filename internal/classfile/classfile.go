// Package classfile defines the loadable program model of the virtual
// machine: programs, classes, fields, methods, string constants, and the
// symbolic method/field reference tables that bytecode operands index.
//
// A Program is built either programmatically (Builder), by the jasm
// assembler, or by the MiniJava compiler, and must be linked before
// execution. Linking resolves superclass names, lays out instance fields
// (inherited fields first, so a subclass object is a prefix-compatible
// extension of its superclass), builds vtables with override resolution,
// resolves method and field references to direct slots, and validates the
// bytecode of every method.
package classfile

import (
	"fmt"

	"repro/internal/bytecode"
)

// Type is a value type in method and field descriptors. References are
// untyped beyond "reference": the VM is memory-safe through runtime checks,
// not a static verifier.
type Type uint8

const (
	TVoid Type = iota
	TInt
	TFloat
	TRef
)

// String returns the descriptor spelling of the type.
func (t Type) String() string {
	switch t {
	case TVoid:
		return "void"
	case TInt:
		return "int"
	case TFloat:
		return "float"
	case TRef:
		return "ref"
	}
	return "invalid"
}

// RefKind distinguishes how a method reference is dispatched.
type RefKind uint8

const (
	// RefStatic calls a static method directly.
	RefStatic RefKind = iota
	// RefVirtual dispatches through the receiver's vtable.
	RefVirtual
	// RefSpecial calls an instance method directly (constructors, super
	// calls) without consulting the vtable.
	RefSpecial
)

func (k RefKind) String() string {
	switch k {
	case RefStatic:
		return "static"
	case RefVirtual:
		return "virtual"
	case RefSpecial:
		return "special"
	}
	return "invalid"
}

// Field is a declared field. After linking, instance fields carry their
// object slot in Offset and static fields their class-local slot in Offset.
type Field struct {
	Name   string
	Type   Type
	Static bool

	Class  *Class // declaring class (set by Builder/link)
	Offset int    // instance slot or static slot, set by link
}

// Method is a declared method. Code is the encoded bytecode stream; Native
// names a builtin implementation instead (exactly one of the two is set,
// except abstract methods which have neither and may not be invoked).
type Method struct {
	Name      string
	Params    []Type // not including the receiver
	Ret       Type
	Static    bool
	Abstract  bool
	MaxLocals int // locals array size, including receiver and params
	Code      []byte
	Native    string
	Handlers  []Handler // exception table, innermost handler first

	Class    *Class // declaring class
	ID       int    // dense program-wide method ID, set by link
	VSlot    int    // vtable slot for instance methods, set by link; -1 for static
	MaxStack int    // operand stack bound, computed by the link-time verifier
}

// Handler is one exception-table entry: if an exception of (a subclass of)
// the catch class is thrown while the pc is in [StartPC, EndPC), control
// transfers to HandlerPC with the exception as the sole stack operand.
// ClassIdx == -1 catches everything.
type Handler struct {
	StartPC   uint32
	EndPC     uint32
	HandlerPC uint32
	ClassIdx  int32

	Class *Class // resolved by link (nil for catch-all)
}

// Covers reports whether the handler protects the given pc.
func (h Handler) Covers(pc uint32) bool { return pc >= h.StartPC && pc < h.EndPC }

// HandlerFor returns the innermost handler covering pc whose catch class
// matches the thrown class, or nil. Only valid after linking.
func (m *Method) HandlerFor(pc uint32, thrown *Class) *Handler {
	for i := range m.Handlers {
		h := &m.Handlers[i]
		if !h.Covers(pc) {
			continue
		}
		if h.Class == nil || (thrown != nil && thrown.IsSubclassOf(h.Class)) {
			return h
		}
	}
	return nil
}

// NArgs returns the number of argument slots the method pops from the
// caller's stack (receiver included for instance methods).
func (m *Method) NArgs() int {
	n := len(m.Params)
	if !m.Static {
		n++
	}
	return n
}

// QName returns Class.Name + "." + Name for diagnostics.
func (m *Method) QName() string {
	if m.Class == nil {
		return m.Name
	}
	return m.Class.Name + "." + m.Name
}

// SameSignature reports whether two methods agree on parameter and return
// types (the override-compatibility check).
func (m *Method) SameSignature(o *Method) bool {
	if m.Ret != o.Ret || len(m.Params) != len(o.Params) {
		return false
	}
	for i := range m.Params {
		if m.Params[i] != o.Params[i] {
			return false
		}
	}
	return true
}

// Class is a declared class. After linking, Super is resolved, VTable holds
// the receiver-polymorphic dispatch table, NumFields the total instance slot
// count including inherited fields, and ID a dense program-wide class ID.
type Class struct {
	Name      string
	SuperName string // empty for root classes
	Fields    []*Field
	Methods   []*Method

	Super     *Class
	ID        int
	NumFields int       // total instance slots including inherited
	NumStatic int       // static slots declared by this class
	VTable    []*Method // virtual dispatch table
	Depth     int       // inheritance depth; root = 0

	fieldByName  map[string]*Field
	methodByName map[string]*Method
}

// FieldNamed returns the field declared by or inherited into the class, or
// nil. Only valid after linking.
func (c *Class) FieldNamed(name string) *Field {
	for k := c; k != nil; k = k.Super {
		if f, ok := k.fieldByName[name]; ok {
			return f
		}
	}
	return nil
}

// MethodNamed returns the method visible on the class under the given name
// (walking up the hierarchy), or nil. Only valid after linking.
func (c *Class) MethodNamed(name string) *Method {
	for k := c; k != nil; k = k.Super {
		if m, ok := k.methodByName[name]; ok {
			return m
		}
	}
	return nil
}

// IsSubclassOf reports whether c is k or a transitive subclass of k.
func (c *Class) IsSubclassOf(k *Class) bool {
	for x := c; x != nil; x = x.Super {
		if x == k {
			return true
		}
	}
	return false
}

// MethodRef is a symbolic method reference; invoke instruction operands
// index the program's MethodRefs table.
type MethodRef struct {
	ClassName string
	Name      string
	Kind      RefKind

	Method *Method // resolved by link
	VSlot  int     // resolved vtable slot for RefVirtual
}

// FieldRef is a symbolic field reference; field instruction operands index
// the program's FieldRefs table.
type FieldRef struct {
	ClassName string
	Name      string
	Static    bool

	Field *Field // resolved by link
	Class *Class // resolved declaring class
}

// Program is a complete loadable unit.
type Program struct {
	Classes    []*Class
	MethodRefs []MethodRef
	FieldRefs  []FieldRef
	Strings    []string // SConst constant pool

	// EntryClass/EntryMethod name the static void main method.
	EntryClass  string
	EntryMethod string

	Methods     []*Method // dense table, populated by link
	Main        *Method   // resolved entry point
	linked      bool
	classByName map[string]*Class
}

// ClassNamed returns the class with the given name, or nil.
func (p *Program) ClassNamed(name string) *Class {
	if p.classByName == nil {
		return nil
	}
	return p.classByName[name]
}

// Linked reports whether Link has completed successfully.
func (p *Program) Linked() bool { return p.linked }

// Link resolves and validates the program; see the package comment. It is
// idempotent: linking a linked program is a no-op.
func (p *Program) Link() error {
	if p.linked {
		return nil
	}
	p.classByName = make(map[string]*Class, len(p.Classes))
	for _, c := range p.Classes {
		if c.Name == "" {
			return fmt.Errorf("classfile: link: class with empty name")
		}
		if _, dup := p.classByName[c.Name]; dup {
			return fmt.Errorf("classfile: link: duplicate class %q", c.Name)
		}
		p.classByName[c.Name] = c
	}

	// Resolve superclasses and detect cycles.
	for _, c := range p.Classes {
		if c.SuperName == "" {
			c.Super = nil
			continue
		}
		s := p.classByName[c.SuperName]
		if s == nil {
			return fmt.Errorf("classfile: link: class %q extends undefined class %q", c.Name, c.SuperName)
		}
		if s == c {
			return fmt.Errorf("classfile: link: class %q extends itself", c.Name)
		}
		c.Super = s
	}
	order, err := topoClasses(p.Classes)
	if err != nil {
		return err
	}

	// Lay out fields, build name maps and vtables in inheritance order.
	for id, c := range p.Classes {
		c.ID = id
	}
	for _, c := range order {
		c.fieldByName = make(map[string]*Field, len(c.Fields))
		c.methodByName = make(map[string]*Method, len(c.Methods))
		base := 0
		statics := 0
		if c.Super != nil {
			base = c.Super.NumFields
			c.Depth = c.Super.Depth + 1
		}
		for _, f := range c.Fields {
			if _, dup := c.fieldByName[f.Name]; dup {
				return fmt.Errorf("classfile: link: class %q declares field %q twice", c.Name, f.Name)
			}
			f.Class = c
			c.fieldByName[f.Name] = f
			if f.Static {
				f.Offset = statics
				statics++
			} else {
				f.Offset = base
				base++
			}
		}
		c.NumFields = base
		c.NumStatic = statics

		// VTable: copy the superclass table, then override or append.
		if c.Super != nil {
			c.VTable = append([]*Method(nil), c.Super.VTable...)
		} else {
			c.VTable = nil
		}
		for _, m := range c.Methods {
			if _, dup := c.methodByName[m.Name]; dup {
				return fmt.Errorf("classfile: link: class %q declares method %q twice", c.Name, m.Name)
			}
			m.Class = c
			c.methodByName[m.Name] = m
			if m.Static {
				m.VSlot = -1
				continue
			}
			slot := -1
			if c.Super != nil {
				if sup := c.Super.MethodNamed(m.Name); sup != nil && !sup.Static {
					if !m.SameSignature(sup) {
						return fmt.Errorf("classfile: link: %s overrides %s with a different signature", m.QName(), sup.QName())
					}
					slot = sup.VSlot
				}
			}
			if slot == -1 {
				slot = len(c.VTable)
				c.VTable = append(c.VTable, m)
			} else {
				c.VTable[slot] = m
			}
			m.VSlot = slot
		}
	}

	// Dense method table and per-method structural validation, which
	// decodes each method's code once for the stack verifier below.
	p.Methods = p.Methods[:0]
	var codes [][]bytecode.Instr
	for _, c := range p.Classes {
		for _, m := range c.Methods {
			m.ID = len(p.Methods)
			p.Methods = append(p.Methods, m)
			ins, err := p.validateMethod(m)
			if err != nil {
				return err
			}
			codes = append(codes, ins)
		}
	}

	// Resolve references.
	for i := range p.MethodRefs {
		if err := p.resolveMethodRef(&p.MethodRefs[i]); err != nil {
			return fmt.Errorf("classfile: link: method ref %d: %w", i, err)
		}
	}
	for i := range p.FieldRefs {
		if err := p.resolveFieldRef(&p.FieldRefs[i]); err != nil {
			return fmt.Errorf("classfile: link: field ref %d: %w", i, err)
		}
	}

	// Stack-depth verification needs resolved method refs (call arity), so
	// it runs after reference resolution.
	for i, m := range p.Methods {
		if len(codes[i]) == 0 {
			continue
		}
		depth, err := p.verifyStack(m, codes[i])
		if err != nil {
			return err
		}
		m.MaxStack = depth
	}

	// Entry point.
	if p.EntryClass != "" {
		c := p.classByName[p.EntryClass]
		if c == nil {
			return fmt.Errorf("classfile: link: entry class %q not found", p.EntryClass)
		}
		m := c.MethodNamed(p.EntryMethod)
		if m == nil {
			return fmt.Errorf("classfile: link: entry method %s.%s not found", p.EntryClass, p.EntryMethod)
		}
		if !m.Static || len(m.Params) != 0 {
			return fmt.Errorf("classfile: link: entry method %s must be static with no parameters", m.QName())
		}
		p.Main = m
	}
	p.linked = true
	return nil
}

func topoClasses(classes []*Class) ([]*Class, error) {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make(map[*Class]int, len(classes))
	var order []*Class
	var visit func(c *Class) error
	visit = func(c *Class) error {
		switch color[c] {
		case black:
			return nil
		case gray:
			return fmt.Errorf("classfile: link: inheritance cycle through class %q", c.Name)
		}
		color[c] = gray
		if c.Super != nil {
			if err := visit(c.Super); err != nil {
				return err
			}
		}
		color[c] = black
		order = append(order, c)
		return nil
	}
	for _, c := range classes {
		if err := visit(c); err != nil {
			return nil, err
		}
	}
	return order, nil
}

// validateMethod checks m's structure and returns its decoded code (nil for
// an abstract or native method).
func (p *Program) validateMethod(m *Method) ([]bytecode.Instr, error) {
	if m.Abstract {
		if len(m.Code) != 0 || m.Native != "" {
			return nil, fmt.Errorf("classfile: link: abstract method %s has a body", m.QName())
		}
		return nil, nil
	}
	if m.Native != "" {
		if len(m.Code) != 0 {
			return nil, fmt.Errorf("classfile: link: native method %s also has bytecode", m.QName())
		}
		return nil, nil
	}
	if len(m.Code) == 0 {
		return nil, fmt.Errorf("classfile: link: method %s has no body", m.QName())
	}
	if m.MaxLocals < m.NArgs() {
		return nil, fmt.Errorf("classfile: link: method %s declares %d locals but takes %d arguments", m.QName(), m.MaxLocals, m.NArgs())
	}
	ins, err := bytecode.Decode(m.Code)
	if err != nil {
		return nil, fmt.Errorf("classfile: link: method %s: %w", m.QName(), err)
	}
	if len(ins) == 0 {
		return nil, fmt.Errorf("classfile: link: method %s has empty code", m.QName())
	}
	last := ins[len(ins)-1]
	switch bytecode.InfoOf(last.Op).Flow {
	case bytecode.FlowGoto, bytecode.FlowReturn, bytecode.FlowSwitch, bytecode.FlowHalt, bytecode.FlowThrow:
	default:
		return nil, fmt.Errorf("classfile: link: method %s can fall off the end of its code (last op %s)", m.QName(), last.Op)
	}
	for _, in := range ins {
		if err := p.validateInstr(m, in); err != nil {
			return nil, err
		}
	}
	return ins, p.validateHandlers(m, ins)
}

// validateHandlers checks and resolves the method's exception table.
func (p *Program) validateHandlers(m *Method, ins []bytecode.Instr) error {
	starts := make(map[uint32]bool, len(ins))
	for _, in := range ins {
		starts[in.PC] = true
	}
	codeEnd := uint32(len(m.Code))
	for i := range m.Handlers {
		h := &m.Handlers[i]
		if h.StartPC >= h.EndPC || h.EndPC > codeEnd {
			return fmt.Errorf("classfile: link: method %s: handler %d has bad range [%d, %d)", m.QName(), i, h.StartPC, h.EndPC)
		}
		if !starts[h.StartPC] {
			return fmt.Errorf("classfile: link: method %s: handler %d starts mid-instruction at %d", m.QName(), i, h.StartPC)
		}
		if !starts[h.HandlerPC] {
			return fmt.Errorf("classfile: link: method %s: handler %d targets non-instruction pc %d", m.QName(), i, h.HandlerPC)
		}
		if h.ClassIdx == -1 {
			h.Class = nil
		} else {
			if h.ClassIdx < 0 || int(h.ClassIdx) >= len(p.Classes) {
				return fmt.Errorf("classfile: link: method %s: handler %d catch class %d out of range", m.QName(), i, h.ClassIdx)
			}
			h.Class = p.Classes[h.ClassIdx]
		}
	}
	return nil
}

func (p *Program) validateInstr(m *Method, in bytecode.Instr) error {
	bad := func(format string, args ...any) error {
		return fmt.Errorf("classfile: link: method %s pc %d: %s", m.QName(), in.PC, fmt.Sprintf(format, args...))
	}
	switch in.Op {
	case bytecode.ILoad, bytecode.IStore, bytecode.FLoad, bytecode.FStore,
		bytecode.ALoad, bytecode.AStore, bytecode.IInc:
		if int(in.A) >= m.MaxLocals {
			return bad("local slot %d out of range (max %d)", in.A, m.MaxLocals)
		}
	case bytecode.SConst:
		if int(in.A) >= len(p.Strings) {
			return bad("string constant %d out of range (%d strings)", in.A, len(p.Strings))
		}
	case bytecode.InvokeStatic, bytecode.InvokeVirtual, bytecode.InvokeSpecial:
		if int(in.A) >= len(p.MethodRefs) {
			return bad("method ref %d out of range (%d refs)", in.A, len(p.MethodRefs))
		}
		ref := p.MethodRefs[in.A]
		want := map[bytecode.Op]RefKind{
			bytecode.InvokeStatic:  RefStatic,
			bytecode.InvokeVirtual: RefVirtual,
			bytecode.InvokeSpecial: RefSpecial,
		}[in.Op]
		if ref.Kind != want {
			return bad("%s uses %s method ref %q", in.Op, ref.Kind, ref.Name)
		}
	case bytecode.GetField, bytecode.PutField, bytecode.GetStatic, bytecode.PutStatic:
		if int(in.A) >= len(p.FieldRefs) {
			return bad("field ref %d out of range (%d refs)", in.A, len(p.FieldRefs))
		}
		ref := p.FieldRefs[in.A]
		wantStatic := in.Op == bytecode.GetStatic || in.Op == bytecode.PutStatic
		if ref.Static != wantStatic {
			return bad("%s uses mismatched field ref %q (static=%v)", in.Op, ref.Name, ref.Static)
		}
	case bytecode.New, bytecode.InstanceOf, bytecode.CheckCast:
		if int(in.A) >= len(p.Classes) {
			return bad("class index %d out of range (%d classes)", in.A, len(p.Classes))
		}
	}
	return nil
}

func (p *Program) resolveMethodRef(ref *MethodRef) error {
	c := p.classByName[ref.ClassName]
	if c == nil {
		return fmt.Errorf("undefined class %q", ref.ClassName)
	}
	m := c.MethodNamed(ref.Name)
	if m == nil {
		return fmt.Errorf("class %q has no method %q", ref.ClassName, ref.Name)
	}
	switch ref.Kind {
	case RefStatic:
		if !m.Static {
			return fmt.Errorf("static ref to instance method %s", m.QName())
		}
	case RefVirtual, RefSpecial:
		if m.Static {
			return fmt.Errorf("%s ref to static method %s", ref.Kind, m.QName())
		}
		if ref.Kind == RefSpecial && m.Abstract {
			return fmt.Errorf("special ref to abstract method %s", m.QName())
		}
	}
	ref.Method = m
	ref.VSlot = m.VSlot
	return nil
}

func (p *Program) resolveFieldRef(ref *FieldRef) error {
	c := p.classByName[ref.ClassName]
	if c == nil {
		return fmt.Errorf("undefined class %q", ref.ClassName)
	}
	f := c.FieldNamed(ref.Name)
	if f == nil {
		return fmt.Errorf("class %q has no field %q", ref.ClassName, ref.Name)
	}
	if f.Static != ref.Static {
		return fmt.Errorf("field ref %s.%s static mismatch", ref.ClassName, ref.Name)
	}
	ref.Field = f
	ref.Class = f.Class
	return nil
}
