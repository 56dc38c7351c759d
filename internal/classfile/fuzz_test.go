package classfile_test

import (
	"errors"
	"testing"

	"repro/internal/bytecode"
	"repro/internal/classfile"
)

// FuzzLinkNeverPanics feeds arbitrary bytes as method code (with fuzzed
// locals count, return type, and exception table) through Verify and then
// Link: each input must link or be refused, never panic, never loop. Link
// refuses exactly what Verify rejects, with the same first finding, and a
// linked method's MaxStack stays within the verifier's ceiling.
func FuzzLinkNeverPanics(f *testing.F) {
	// Seed with a valid method body so the fuzzer starts from decodable code.
	enc := bytecode.NewEncoder()
	for _, in := range []bytecode.Instr{
		{Op: bytecode.IConst, A: 7},
		{Op: bytecode.IStore, A: 2},
		{Op: bytecode.ILoad, A: 2},
		{Op: bytecode.IfEq, A: 0},
		{Op: bytecode.ReturnVoid},
	} {
		if _, err := enc.Emit(in); err != nil {
			f.Fatal(err)
		}
	}
	f.Add(enc.Bytes(), uint16(4), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0))
	f.Add([]byte{byte(bytecode.ReturnVoid)}, uint16(3), uint8(0), uint8(1), uint8(0), uint8(0), uint8(9))
	f.Add([]byte{0xff, 0x01, 0x02}, uint16(3), uint8(0), uint8(2), uint8(1), uint8(3), uint8(1))

	f.Fuzz(func(t *testing.T, code []byte, locals uint16, hstart, hend, hpc, ret, hclass uint8) {
		b := classfile.NewBuilder()
		cb := b.Class("Main")
		cb.Field("f", classfile.TFloat)
		cb.StaticField("g", classfile.TInt)
		b.String("s")
		b.MethodRef("Main", "m", classfile.RefStatic)
		b.FieldRef("Main", "f", false)
		b.FieldRef("Main", "g", true)
		m := cb.Method("m", []classfile.Type{classfile.TInt, classfile.TRef}, classfile.Type(ret%4), true)
		m.MaxLocals = int(locals)
		m.Code = code
		m.Handlers = []classfile.Handler{{
			StartPC:   uint32(hstart),
			EndPC:     uint32(hend),
			HandlerPC: uint32(hpc),
			ClassIdx:  int32(hclass) - 1, // -1 catches everything
		}}
		prog := b.Program()
		rep := classfile.Verify(prog)
		err := prog.Link()
		var verr *classfile.VerifyError
		if rep.Reject() != errors.As(err, &verr) {
			t.Fatalf("Verify and Link disagree: report %q, link error %v", rep, err)
		}
		if verr != nil && verr.Report.Errors()[0] != rep.Errors()[0] {
			t.Fatalf("Link refused with %s, Verify with %s", verr.Report.Errors()[0], rep.Errors()[0])
		}
		if err != nil {
			return
		}
		if m.MaxStack < 0 || m.MaxStack > classfile.MaxVerifyStack {
			t.Fatalf("linked MaxStack %d outside [0, %d]", m.MaxStack, classfile.MaxVerifyStack)
		}
		if h := m.Handlers[0]; (h.ClassIdx == -1) != (h.Class == nil) {
			t.Fatalf("linked program with unresolved handler %+v", h)
		}
	})
}
