package classfile

import "fmt"

// Builder constructs Programs programmatically with interning of string
// constants and method/field references. The MiniJava code generator, the
// assembler, and many tests use it.
type Builder struct {
	prog       *Program
	strings    map[string]int
	methodRefs map[string]int
	fieldRefs  map[string]int
	classes    map[string]*ClassBuilder
}

// NewBuilder returns an empty program builder.
func NewBuilder() *Builder {
	return &Builder{
		prog:       &Program{},
		strings:    make(map[string]int),
		methodRefs: make(map[string]int),
		fieldRefs:  make(map[string]int),
		classes:    make(map[string]*ClassBuilder),
	}
}

// ClassBuilder accumulates one class's members.
type ClassBuilder struct {
	c *Class
}

// Class starts (or returns the existing builder for) a class.
func (b *Builder) Class(name string) *ClassBuilder {
	if cb, ok := b.classes[name]; ok {
		return cb
	}
	c := &Class{Name: name}
	b.prog.Classes = append(b.prog.Classes, c)
	cb := &ClassBuilder{c: c}
	b.classes[name] = cb
	return cb
}

// Extends sets the superclass name.
func (cb *ClassBuilder) Extends(super string) *ClassBuilder {
	cb.c.SuperName = super
	return cb
}

// Field declares an instance field.
func (cb *ClassBuilder) Field(name string, t Type) *ClassBuilder {
	cb.c.Fields = append(cb.c.Fields, &Field{Name: name, Type: t})
	return cb
}

// StaticField declares a static field.
func (cb *ClassBuilder) StaticField(name string, t Type) *ClassBuilder {
	cb.c.Fields = append(cb.c.Fields, &Field{Name: name, Type: t, Static: true})
	return cb
}

// Method declares a method with a bytecode body and returns it so callers
// can fill in Code and MaxLocals.
func (cb *ClassBuilder) Method(name string, params []Type, ret Type, static bool) *Method {
	m := &Method{Name: name, Params: params, Ret: ret, Static: static}
	cb.c.Methods = append(cb.c.Methods, m)
	return m
}

// NativeMethod declares a method bound to a named builtin.
func (cb *ClassBuilder) NativeMethod(name string, params []Type, ret Type, static bool, native string) *Method {
	m := cb.Method(name, params, ret, static)
	m.Native = native
	return m
}

// AbstractMethod declares an abstract instance method.
func (cb *ClassBuilder) AbstractMethod(name string, params []Type, ret Type) *Method {
	m := cb.Method(name, params, ret, false)
	m.Abstract = true
	return m
}

// String interns a string constant and returns its pool index.
func (b *Builder) String(s string) int {
	if i, ok := b.strings[s]; ok {
		return i
	}
	i := len(b.prog.Strings)
	b.prog.Strings = append(b.prog.Strings, s)
	b.strings[s] = i
	return i
}

// MethodRef interns a symbolic method reference and returns its table index.
func (b *Builder) MethodRef(className, name string, kind RefKind) int {
	key := fmt.Sprintf("%d:%s.%s", kind, className, name)
	if i, ok := b.methodRefs[key]; ok {
		return i
	}
	i := len(b.prog.MethodRefs)
	b.prog.MethodRefs = append(b.prog.MethodRefs, MethodRef{ClassName: className, Name: name, Kind: kind})
	b.methodRefs[key] = i
	return i
}

// FieldRef interns a symbolic field reference and returns its table index.
func (b *Builder) FieldRef(className, name string, static bool) int {
	key := fmt.Sprintf("%v:%s.%s", static, className, name)
	if i, ok := b.fieldRefs[key]; ok {
		return i
	}
	i := len(b.prog.FieldRefs)
	b.prog.FieldRefs = append(b.prog.FieldRefs, FieldRef{ClassName: className, Name: name, Static: static})
	b.fieldRefs[key] = i
	return i
}

// ClassIndex returns the class-table index for New/InstanceOf/CheckCast
// operands, declaring the class on first use so forward references work.
func (b *Builder) ClassIndex(name string) int {
	b.Class(name)
	for i, k := range b.prog.Classes {
		if k.Name == name {
			return i
		}
	}
	return -1 // unreachable: Class always inserts
}

// SetEntry names the program entry point (a static, no-argument method).
func (b *Builder) SetEntry(className, methodName string) {
	b.prog.EntryClass = className
	b.prog.EntryMethod = methodName
}

// Build links (and so verifies) and returns the program. A verifier
// rejection is a *VerifyError.
func (b *Builder) Build() (*Program, error) {
	if err := b.prog.Link(); err != nil {
		return nil, err
	}
	return b.prog, nil
}

// Program returns the unlinked program under construction. Tests use it to
// exercise link failures.
func (b *Builder) Program() *Program { return b.prog }
