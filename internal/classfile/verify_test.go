package classfile_test

import (
	"strings"
	"testing"

	"repro/internal/bytecode"
	"repro/internal/classfile"
)

// buildWith creates a single-class program whose static void main has the
// given body, and links it.
func buildWith(t *testing.T, locals int, ins []bytecode.Instr) error {
	t.Helper()
	b := classfile.NewBuilder()
	m := b.Class("A").Method("main", nil, classfile.TVoid, true)
	m.MaxLocals = locals
	m.Code = bytecode.MustEncode(ins)
	b.SetEntry("A", "main")
	_, err := b.Build()
	return err
}

func TestVerifierRejectsUnderflow(t *testing.T) {
	err := buildWith(t, 0, []bytecode.Instr{
		{Op: bytecode.Pop}, // pops from an empty stack
		{Op: bytecode.ReturnVoid},
	})
	if err == nil || !strings.Contains(err.Error(), "pops") {
		t.Errorf("underflow accepted: %v", err)
	}
}

func TestVerifierRejectsJoinMismatch(t *testing.T) {
	// Two paths join at @25 with different stack depths: the taken branch
	// arrives with depth 0 (the ifeq popped its operand), the fallthrough
	// pushes a constant first and arrives with depth 1.
	ins := []bytecode.Instr{
		{Op: bytecode.IConst, A: 1}, // @0
		{Op: bytecode.IfEq, A: 25},  // @5   taken -> @25 with depth 0
		{Op: bytecode.IConst, A: 2}, // @10  fallthrough pushes one value
		{Op: bytecode.Goto, A: 25},  // @15  -> @25 with depth 1
		{Op: bytecode.IConst, A: 3}, // @20  (unreachable padding)
		{Op: bytecode.Pop},          // @25  join point
		{Op: bytecode.ReturnVoid},   // @26
	}
	err := buildWith(t, 0, ins)
	if err == nil || !strings.Contains(err.Error(), classfile.RuleStackImbalance) {
		t.Errorf("join mismatch accepted: %v", err)
	}
}

func TestVerifierRejectsDirtyReturn(t *testing.T) {
	err := buildWith(t, 0, []bytecode.Instr{
		{Op: bytecode.IConst, A: 1},
		{Op: bytecode.ReturnVoid}, // leaves a value behind
	})
	if err == nil || !strings.Contains(err.Error(), "leaves") {
		t.Errorf("dirty return accepted: %v", err)
	}
}

func TestVerifierComputesMaxStack(t *testing.T) {
	b := classfile.NewBuilder()
	m := b.Class("A").Method("main", nil, classfile.TVoid, true)
	m.Code = bytecode.MustEncode([]bytecode.Instr{
		{Op: bytecode.IConst, A: 1},
		{Op: bytecode.IConst, A: 2},
		{Op: bytecode.IConst, A: 3}, // depth 3
		{Op: bytecode.IAdd},
		{Op: bytecode.IAdd},
		{Op: bytecode.Pop},
		{Op: bytecode.ReturnVoid},
	})
	b.SetEntry("A", "main")
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if got := prog.Main.MaxStack; got != 3 {
		t.Errorf("MaxStack = %d, want 3", got)
	}
}

func TestVerifierHandlesCalls(t *testing.T) {
	b := classfile.NewBuilder()
	callee := b.Class("A").Method("f", []classfile.Type{classfile.TInt, classfile.TInt}, classfile.TInt, true)
	callee.MaxLocals = 2
	callee.Code = bytecode.MustEncode([]bytecode.Instr{
		{Op: bytecode.ILoad, A: 0},
		{Op: bytecode.ILoad, A: 1},
		{Op: bytecode.IAdd},
		{Op: bytecode.IReturn},
	})
	ref := b.MethodRef("A", "f", classfile.RefStatic)
	m := b.Class("A").Method("main", nil, classfile.TVoid, true)
	m.Code = bytecode.MustEncode([]bytecode.Instr{
		{Op: bytecode.IConst, A: 1},
		{Op: bytecode.IConst, A: 2},
		{Op: bytecode.InvokeStatic, A: int32(ref)}, // pops 2, pushes 1
		{Op: bytecode.Pop},
		{Op: bytecode.ReturnVoid},
	})
	b.SetEntry("A", "main")
	prog, err := b.Build()
	if err != nil {
		t.Fatalf("call verification failed: %v", err)
	}
	if prog.Main.MaxStack != 2 {
		t.Errorf("MaxStack = %d, want 2", prog.Main.MaxStack)
	}

	// Under-supplied call must be rejected.
	b2 := classfile.NewBuilder()
	c2 := b2.Class("A").Method("f", []classfile.Type{classfile.TInt, classfile.TInt}, classfile.TInt, true)
	c2.MaxLocals = 2
	c2.Code = callee.Code
	ref2 := b2.MethodRef("A", "f", classfile.RefStatic)
	m2 := b2.Class("A").Method("main", nil, classfile.TVoid, true)
	m2.Code = bytecode.MustEncode([]bytecode.Instr{
		{Op: bytecode.IConst, A: 1},
		{Op: bytecode.InvokeStatic, A: int32(ref2)},
		{Op: bytecode.Pop},
		{Op: bytecode.ReturnVoid},
	})
	b2.SetEntry("A", "main")
	if _, err := b2.Build(); err == nil || !strings.Contains(err.Error(), "pops") {
		t.Errorf("under-supplied call accepted: %v", err)
	}
}

func TestVerifierLoopConsistency(t *testing.T) {
	// A loop whose body is stack-neutral verifies; one that leaks a value
	// per iteration does not. PCs: iconst@0(5B) istore@5(3B) iload@8(3B)
	// ifle@11(5B) iinc@16(5B) goto@21(5B) return@26.
	ok := []bytecode.Instr{
		{Op: bytecode.IConst, A: 10},
		{Op: bytecode.IStore, A: 0},
		{Op: bytecode.ILoad, A: 0}, // loop head @8
		{Op: bytecode.IfLe, A: 26},
		{Op: bytecode.IInc, A: 0, B: -1},
		{Op: bytecode.Goto, A: 8},
		{Op: bytecode.ReturnVoid},
	}
	if err := buildWith(t, 1, ok); err != nil {
		t.Fatalf("stack-neutral loop rejected: %v", err)
	}

	leak := []bytecode.Instr{
		{Op: bytecode.IConst, A: 10},     // @0
		{Op: bytecode.IStore, A: 0},      // @5
		{Op: bytecode.IConst, A: 7},      // @8 leak one value per iteration
		{Op: bytecode.ILoad, A: 0},       // @13
		{Op: bytecode.IfLe, A: 31},       // @16
		{Op: bytecode.IInc, A: 0, B: -1}, // @21
		{Op: bytecode.Goto, A: 8},        // @26
		{Op: bytecode.ReturnVoid},        // @31
	}
	err := buildWith(t, 1, leak)
	if err == nil || !strings.Contains(err.Error(), classfile.RuleStackImbalance) {
		t.Errorf("leaking loop accepted: %v", err)
	}
}

func TestVerifierUnreachableFillerAllowed(t *testing.T) {
	// Code after an infinite loop is unreachable; the verifier must not
	// reject it (the MiniJava compiler emits such epilogues).
	ins := []bytecode.Instr{
		{Op: bytecode.Goto, A: 0},   // @0: self-loop
		{Op: bytecode.IConst, A: 0}, // @5: unreachable
		{Op: bytecode.IReturn},      // @10
	}
	if err := buildWith(t, 0, ins); err != nil {
		t.Errorf("unreachable filler rejected: %v", err)
	}
}
