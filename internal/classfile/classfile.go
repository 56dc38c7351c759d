// Package classfile defines the loadable program model of the virtual
// machine: programs, classes, fields, methods, string constants, and the
// symbolic method/field reference tables that bytecode operands index.
//
// A Program is built either programmatically (Builder), by the jasm
// assembler, or by the MiniJava compiler, and must be linked before
// execution. Linking resolves superclass names, lays out instance fields
// (inherited fields first, so a subclass object is a prefix-compatible
// extension of its superclass), builds vtables with override resolution,
// runs the bytecode verifier over every method (verify.go), and resolves
// method and field references to direct slots. A linked program is a
// verified one.
package classfile

import (
	"fmt"

	"repro/internal/bytecode"
)

// Type is a value type in method and field descriptors. References are
// untyped beyond "reference": the verifier checks value kinds only, and the
// VM is memory-safe through runtime checks (a receiver's class, a cast).
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

	// Dense method table.
	p.Methods = p.Methods[:0]
	for _, c := range p.Classes {
		for _, m := range c.Methods {
			m.ID = len(p.Methods)
			p.Methods = append(p.Methods, m)
			if err := checkBody(m); err != nil {
				return err
			}
		}
	}

	// Verify every bytecode method and take its MaxStack. The verifier
	// resolves references by name, so it runs before resolution and
	// reports a dangling one as a finding like any other.
	if rep := verify(p, true); rep.Reject() {
		return rep.Err()
	}

	// Resolve references. The verifier has range-checked every catch class.
	for _, m := range p.Methods {
		if len(m.Code) == 0 {
			continue
		}
		for i := range m.Handlers {
			h := &m.Handlers[i]
			h.Class = nil
			if h.ClassIdx != -1 {
				h.Class = p.Classes[h.ClassIdx]
			}
		}
	}
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

// checkBody enforces the body rules the verifier leaves to the linker: an
// abstract method has no body and a native one no bytecode.
func checkBody(m *Method) error {
	if m.Abstract && (len(m.Code) != 0 || m.Native != "") {
		return fmt.Errorf("classfile: link: abstract method %s has a body", m.QName())
	}
	if m.Native != "" && len(m.Code) != 0 {
		return fmt.Errorf("classfile: link: native method %s also has bytecode", m.QName())
	}
	return nil
}

// Leaders marks, by pc, the instructions of m's decoded code ins that start
// a basic block: the entry, every branch and switch target, every exception
// handler, and every instruction following a terminator. The slice has
// len(m.Code)+1 entries, so the pc after the last instruction is in range.
// A handler pc outside the code (code changed after linking) is skipped.
func Leaders(m *Method, ins []bytecode.Instr) []bool {
	lead := make([]bool, len(m.Code)+1)
	lead[0] = true
	for i := range ins {
		for _, t := range ins[i].BranchTargets() {
			lead[t] = true
		}
		if ins[i].Op.IsTerminator() {
			lead[ins[i].Next()] = true
		}
	}
	for _, h := range m.Handlers {
		if int(h.HandlerPC) < len(m.Code) {
			lead[h.HandlerPC] = true
		}
	}
	return lead
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
