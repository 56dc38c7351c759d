package classfile_test

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/bytecode"
	"repro/internal/classfile"
)

// retVoid is the minimal valid method body.
var retVoid = bytecode.MustEncode([]bytecode.Instr{{Op: bytecode.ReturnVoid}})

func buildDiamondless(t *testing.T) *classfile.Program {
	t.Helper()
	b := classfile.NewBuilder()
	b.Class("Animal").Field("age", classfile.TInt)
	sound := b.Class("Animal").Method("sound", nil, classfile.TInt, false)
	sound.MaxLocals = 1
	sound.Code = bytecode.MustEncode([]bytecode.Instr{
		{Op: bytecode.IConst, A: 0},
		{Op: bytecode.IReturn},
	})
	b.Class("Dog").Extends("Animal").Field("tricks", classfile.TInt)
	bark := b.Class("Dog").Method("sound", nil, classfile.TInt, false)
	bark.MaxLocals = 1
	bark.Code = bytecode.MustEncode([]bytecode.Instr{
		{Op: bytecode.IConst, A: 1},
		{Op: bytecode.IReturn},
	})
	fetch := b.Class("Dog").Method("fetch", nil, classfile.TVoid, false)
	fetch.MaxLocals = 1
	fetch.Code = retVoid
	mainM := b.Class("Main").Method("main", nil, classfile.TVoid, true)
	mainM.Code = retVoid
	b.SetEntry("Main", "main")
	prog, err := b.Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return prog
}

func TestLinkLaysOutFieldsWithInheritance(t *testing.T) {
	prog := buildDiamondless(t)
	animal := prog.ClassNamed("Animal")
	dog := prog.ClassNamed("Dog")
	if animal.NumFields != 1 || dog.NumFields != 2 {
		t.Errorf("field counts: animal %d (want 1), dog %d (want 2)", animal.NumFields, dog.NumFields)
	}
	age := dog.FieldNamed("age")
	tricks := dog.FieldNamed("tricks")
	if age == nil || tricks == nil {
		t.Fatal("inherited or declared field not found")
	}
	if age.Offset != 0 || tricks.Offset != 1 {
		t.Errorf("offsets: age %d (want 0), tricks %d (want 1)", age.Offset, tricks.Offset)
	}
	if age.Class != animal {
		t.Error("inherited field should keep its declaring class")
	}
}

func TestLinkBuildsVTablesWithOverride(t *testing.T) {
	prog := buildDiamondless(t)
	animal := prog.ClassNamed("Animal")
	dog := prog.ClassNamed("Dog")
	if len(animal.VTable) != 1 {
		t.Fatalf("animal vtable size %d, want 1", len(animal.VTable))
	}
	if len(dog.VTable) != 2 {
		t.Fatalf("dog vtable size %d, want 2 (override + fetch)", len(dog.VTable))
	}
	slot := animal.MethodNamed("sound").VSlot
	if dog.VTable[slot].Class != dog {
		t.Error("Dog.sound did not override Animal.sound in the vtable")
	}
	if !dog.IsSubclassOf(animal) || animal.IsSubclassOf(dog) {
		t.Error("IsSubclassOf is wrong")
	}
	if dog.Depth != 1 || animal.Depth != 0 {
		t.Errorf("depths: dog %d, animal %d", dog.Depth, animal.Depth)
	}
}

func TestLinkErrors(t *testing.T) {
	mk := func(f func(*classfile.Builder)) error {
		b := classfile.NewBuilder()
		f(b)
		_, err := b.Build()
		return err
	}
	cases := []struct {
		name string
		f    func(*classfile.Builder)
		want string
	}{
		{"undefined super", func(b *classfile.Builder) {
			b.Class("A").Extends("Nope")
		}, "undefined class"},
		{"self super", func(b *classfile.Builder) {
			b.Class("A").Extends("A")
		}, "extends itself"},
		{"cycle", func(b *classfile.Builder) {
			b.Class("A").Extends("B")
			b.Class("B").Extends("A")
		}, "cycle"},
		{"dup field", func(b *classfile.Builder) {
			b.Class("A").Field("x", classfile.TInt).Field("x", classfile.TInt)
		}, "twice"},
		{"bad override", func(b *classfile.Builder) {
			m1 := b.Class("A").Method("f", nil, classfile.TInt, false)
			m1.MaxLocals = 1
			m1.Code = bytecode.MustEncode([]bytecode.Instr{{Op: bytecode.IConst, A: 0}, {Op: bytecode.IReturn}})
			m2 := b.Class("B").Extends("A").Method("f", nil, classfile.TFloat, false)
			m2.MaxLocals = 1
			m2.Code = bytecode.MustEncode([]bytecode.Instr{{Op: bytecode.FConst}, {Op: bytecode.FReturn}})
		}, "different signature"},
		{"no body", func(b *classfile.Builder) {
			b.Class("A").Method("f", nil, classfile.TVoid, true)
		}, classfile.RuleTruncatedCode},
		{"falls off end", func(b *classfile.Builder) {
			m := b.Class("A").Method("f", nil, classfile.TVoid, true)
			m.Code = bytecode.MustEncode([]bytecode.Instr{{Op: bytecode.Nop}})
		}, classfile.RuleFallOffEnd},
		{"locals too small", func(b *classfile.Builder) {
			m := b.Class("A").Method("f", []classfile.Type{classfile.TInt}, classfile.TVoid, true)
			m.MaxLocals = 0
			m.Code = retVoid
		}, "arguments"},
		{"slot out of range", func(b *classfile.Builder) {
			m := b.Class("A").Method("f", nil, classfile.TVoid, true)
			m.MaxLocals = 1
			m.Code = bytecode.MustEncode([]bytecode.Instr{
				{Op: bytecode.ILoad, A: 5},
				{Op: bytecode.ReturnVoid},
			})
		}, "out of range"},
		{"missing entry class", func(b *classfile.Builder) {
			m := b.Class("A").Method("main", nil, classfile.TVoid, true)
			m.Code = retVoid
			b.SetEntry("Zap", "main")
		}, "not found"},
		{"entry not static", func(b *classfile.Builder) {
			m := b.Class("A").Method("main", nil, classfile.TVoid, false)
			m.MaxLocals = 1
			m.Code = retVoid
			b.SetEntry("A", "main")
		}, "static"},
		{"abstract with body", func(b *classfile.Builder) {
			m := b.Class("A").AbstractMethod("f", nil, classfile.TVoid)
			m.Code = retVoid
		}, "has a body"},
		{"string ref out of range", func(b *classfile.Builder) {
			m := b.Class("A").Method("main", nil, classfile.TVoid, true)
			m.Code = bytecode.MustEncode([]bytecode.Instr{
				{Op: bytecode.SConst, A: 3},
				{Op: bytecode.Pop},
				{Op: bytecode.ReturnVoid},
			})
		}, classfile.RuleBadRefIndex},
		{"method ref kind mismatch", func(b *classfile.Builder) {
			callee := b.Class("A").Method("g", nil, classfile.TVoid, true)
			callee.Code = retVoid
			ref := b.MethodRef("A", "g", classfile.RefStatic)
			m := b.Class("A").Method("main", nil, classfile.TVoid, true)
			m.Code = bytecode.MustEncode([]bytecode.Instr{
				{Op: bytecode.InvokeVirtual, A: int32(ref)},
				{Op: bytecode.ReturnVoid},
			})
		}, "method ref"},
		{"unresolvable field ref", func(b *classfile.Builder) {
			ref := b.FieldRef("A", "nope", false)
			m := b.Class("A").Method("main", nil, classfile.TVoid, false)
			m.MaxLocals = 1
			m.Code = bytecode.MustEncode([]bytecode.Instr{
				{Op: bytecode.ALoad, A: 0},
				{Op: bytecode.GetField, A: int32(ref)},
				{Op: bytecode.Pop},
				{Op: bytecode.ReturnVoid},
			})
		}, "no field"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := mk(tc.f)
			if err == nil {
				t.Fatalf("link succeeded, want error containing %q", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not contain %q", err, tc.want)
			}
		})
	}
}

func TestLinkIsIdempotent(t *testing.T) {
	prog := buildDiamondless(t)
	if err := prog.Link(); err != nil {
		t.Fatalf("second link: %v", err)
	}
	if !prog.Linked() {
		t.Error("program not marked linked")
	}
}

func TestSerializationRoundTrip(t *testing.T) {
	prog := buildDiamondless(t)
	var buf bytes.Buffer
	if err := classfile.Write(&buf, prog); err != nil {
		t.Fatalf("write: %v", err)
	}
	got, err := classfile.Read(&buf)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if err := got.Link(); err != nil {
		t.Fatalf("relink: %v", err)
	}
	if len(got.Classes) != len(prog.Classes) {
		t.Fatalf("class count %d, want %d", len(got.Classes), len(prog.Classes))
	}
	for i, c := range prog.Classes {
		gc := got.Classes[i]
		if gc.Name != c.Name || gc.SuperName != c.SuperName {
			t.Errorf("class %d: %s/%s, want %s/%s", i, gc.Name, gc.SuperName, c.Name, c.SuperName)
		}
		if len(gc.Methods) != len(c.Methods) {
			t.Errorf("class %s: method count %d, want %d", c.Name, len(gc.Methods), len(c.Methods))
			continue
		}
		for j, m := range c.Methods {
			gm := gc.Methods[j]
			if gm.Name != m.Name || gm.Static != m.Static || !bytes.Equal(gm.Code, m.Code) {
				t.Errorf("method %s.%s did not round-trip", c.Name, m.Name)
			}
		}
	}
	if got.EntryClass != prog.EntryClass || got.EntryMethod != prog.EntryMethod {
		t.Error("entry point did not round-trip")
	}
}

// TestLinkVerifiesReadModule: a module is untrusted input, and linking what
// Read returns runs the verifier, so a method that reads a local no path
// has stored is refused with its rule.
func TestLinkVerifiesReadModule(t *testing.T) {
	b := classfile.NewBuilder()
	m := b.Class("Main").Method("main", nil, classfile.TVoid, true)
	m.MaxLocals = 1
	m.Code = bytecode.MustEncode([]bytecode.Instr{
		{Op: bytecode.ILoad, A: 0},
		{Op: bytecode.Pop},
		{Op: bytecode.ReturnVoid},
	})
	b.SetEntry("Main", "main")
	var buf bytes.Buffer
	if err := classfile.Write(&buf, b.Program()); err != nil {
		t.Fatal(err)
	}
	prog, err := classfile.Read(&buf)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	err = prog.Link()
	var verr *classfile.VerifyError
	if !errors.As(err, &verr) {
		t.Fatalf("link err = %v, want a *classfile.VerifyError", err)
	}
	if got := verr.Report.Errors()[0].Rule; got != classfile.RuleUninitLocal {
		t.Errorf("rule = %s, want %s", got, classfile.RuleUninitLocal)
	}
	if prog.Linked() {
		t.Error("a refused program reports itself linked")
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	cases := map[string][]byte{
		"empty":        {},
		"bad magic":    {1, 2, 3, 4, 5, 6, 7, 8},
		"truncated":    {0x31, 0x4d, 0x54, 0x4a, 1, 0, 0, 0}, // magic ok, then cut
		"huge strings": append([]byte{0x31, 0x4d, 0x54, 0x4a, 1, 0, 0, 0}, 0xff, 0xff, 0xff, 0x7f),
	}
	for name, data := range cases {
		if _, err := classfile.Read(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: read succeeded", name)
		}
	}
}

// TestPropertySerializationPreservesPrograms: random small programs survive
// write/read/link.
func TestPropertySerializationPreservesPrograms(t *testing.T) {
	f := func(nClasses uint8, nStrings uint8, withEntry bool) bool {
		b := classfile.NewBuilder()
		classes := int(nClasses%4) + 1
		for i := 0; i < classes; i++ {
			name := string(rune('A' + i))
			cb := b.Class(name)
			if i > 0 {
				cb.Extends(string(rune('A' + i - 1)))
			}
			cb.Field("f"+name, classfile.TFloat)
			m := cb.Method("m"+name, []classfile.Type{classfile.TInt}, classfile.TVoid, true)
			m.MaxLocals = 1
			m.Code = retVoid
		}
		for i := 0; i < int(nStrings%8); i++ {
			b.String(strings.Repeat("s", i+1))
		}
		mainM := b.Class("A").Method("main", nil, classfile.TVoid, true)
		mainM.Code = retVoid
		if withEntry {
			b.SetEntry("A", "main")
		}
		prog, err := b.Build()
		if err != nil {
			return false
		}
		var buf bytes.Buffer
		if err := classfile.Write(&buf, prog); err != nil {
			return false
		}
		got, err := classfile.Read(&buf)
		if err != nil {
			return false
		}
		if err := got.Link(); err != nil {
			return false
		}
		return len(got.Classes) == len(prog.Classes) &&
			len(got.Strings) == len(prog.Strings) &&
			len(got.Methods) == len(prog.Methods)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestBuilderInterning(t *testing.T) {
	b := classfile.NewBuilder()
	if b.String("x") != b.String("x") {
		t.Error("string constants not interned")
	}
	if b.String("x") == b.String("y") {
		t.Error("distinct strings share an index")
	}
	if b.MethodRef("A", "f", classfile.RefStatic) != b.MethodRef("A", "f", classfile.RefStatic) {
		t.Error("method refs not interned")
	}
	if b.MethodRef("A", "f", classfile.RefStatic) == b.MethodRef("A", "f", classfile.RefVirtual) {
		t.Error("method refs with different kinds share an index")
	}
	if b.FieldRef("A", "x", false) == b.FieldRef("A", "x", true) {
		t.Error("field refs with different staticness share an index")
	}
	if b.ClassIndex("Z") != b.ClassIndex("Z") {
		t.Error("class index unstable")
	}
}

func TestTypeAndRefKindStrings(t *testing.T) {
	if classfile.TInt.String() != "int" || classfile.TVoid.String() != "void" ||
		classfile.TFloat.String() != "float" || classfile.TRef.String() != "ref" {
		t.Error("Type.String wrong")
	}
	if classfile.RefStatic.String() != "static" || classfile.RefVirtual.String() != "virtual" ||
		classfile.RefSpecial.String() != "special" {
		t.Error("RefKind.String wrong")
	}
}
