package analysis_test

import (
	"testing"

	"repro/internal/bytecode"
	"repro/internal/classfile"
)

// FuzzVerifyNeverPanics feeds arbitrary bytes as method code (with fuzzed
// locals count, return type, and exception table) through the verifier:
// every input must produce a report or pass — never panic, never loop.
func FuzzVerifyNeverPanics(f *testing.F) {
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
	f.Add(enc.Bytes(), uint16(4), uint8(0), uint8(0), uint8(0), uint8(0))
	f.Add([]byte{byte(bytecode.ReturnVoid)}, uint16(3), uint8(0), uint8(1), uint8(0), uint8(0))
	f.Add([]byte{0xff, 0x01, 0x02}, uint16(3), uint8(0), uint8(2), uint8(1), uint8(3))

	f.Fuzz(func(t *testing.T, code []byte, locals uint16, hstart, hend, hpc, ret uint8) {
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
			ClassIdx:  -1,
		}}
		rep := classfile.Verify(b.Program())
		// The report must be internally consistent regardless of input.
		if rep.Reject() && rep.Err() == nil {
			t.Fatal("rejecting report with nil Err")
		}
		if !rep.Reject() && rep.Err() != nil {
			t.Fatal("accepting report with non-nil Err")
		}
	})
}
