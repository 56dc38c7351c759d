package analysis_test

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"repro/internal/classfile"
	"repro/internal/jasm"
)

func mustUnlinked(t *testing.T, src string) *classfile.Report {
	t.Helper()
	prog, err := jasm.AssembleUnlinked(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	return classfile.Verify(prog)
}

func TestVerifyAcceptsHandlerFlow(t *testing.T) {
	// The handler receives exactly one reference on the stack and the
	// locals as they were inside the protected range.
	rep := mustUnlinked(t, `
.class Err
.end
.class Main
.method static main ( ) void
    .locals 2
    iconst 1
    istore 1
L0: new Err
    throw
L1: astore 0
    iload 1
    pop
    return
    .catch Err from L0 to L1 using L1
.end
.end
`)
	if rep.Reject() {
		t.Fatalf("rejected:\n%s", rep)
	}
}

func TestVerifyUnreachableWarning(t *testing.T) {
	rep := mustUnlinked(t, `
.class Main
.method static main ( ) void
    goto L
    iconst 1
    pop
    return
L:  return
.end
.end
`)
	if rep.Reject() {
		t.Fatalf("unreachable code must only warn, got rejection:\n%s", rep)
	}
	warns := rep.Warnings()
	if len(warns) != 1 {
		t.Fatalf("want 1 warning, got %d:\n%s", len(warns), rep)
	}
	if warns[0].Rule != classfile.RuleUnreachableBlock {
		t.Fatalf("want %s, got %s", classfile.RuleUnreachableBlock, warns[0].Rule)
	}
	if rep.Err() != nil {
		t.Fatalf("warnings must not produce an error: %v", rep.Err())
	}
}

func TestVerifyKindConflictAtJoinRejected(t *testing.T) {
	// The two paths push different kinds; the merged value is unusable by a
	// typed instruction.
	rep := mustUnlinked(t, `
.class Main
.method static main ( ) void
    iconst 0
    ifeq F
    iconst 1
    goto J
F:  fconst 2.0
J:  ineg
    pop
    return
.end
.end
`)
	if !rep.Reject() {
		t.Fatal("kind conflict at join was accepted")
	}
	if got := rep.Errors()[0].Rule; got != classfile.RuleKindMismatch {
		t.Fatalf("want %s, got %s", classfile.RuleKindMismatch, got)
	}
}

func TestVerifyDupX1AndSwapKinds(t *testing.T) {
	// dup_x1 and swap must track kinds positionally: after
	// [ref, int] swap → [int, ref], putfield stores the int into Main.f.
	rep := mustUnlinked(t, `
.class Main
.field f int
.method static main ( ) void
    new Main
    iconst 3
    putfield Main.f
    iconst 4
    new Main
    swap
    putfield Main.f
    return
.end
.end
`)
	if rep.Reject() {
		t.Fatalf("rejected:\n%s", rep)
	}
}

func TestVerifyInvokeArgKinds(t *testing.T) {
	rep := mustUnlinked(t, `
.class Main
.method static f ( int float ) void
    return
.end
.method static main ( ) void
    fconst 1.0
    iconst 2
    invokestatic Main.f
    return
.end
.end
`)
	// Arguments are pushed in order (int then float expected); here they
	// are reversed, so argument checking must reject.
	if !rep.Reject() {
		t.Fatal("mis-kinded call arguments were accepted")
	}
	if got := rep.Errors()[0].Rule; got != classfile.RuleKindMismatch {
		t.Fatalf("want %s, got %s", classfile.RuleKindMismatch, got)
	}
}

func TestVerifyStopsAtFirstErrorPerMethod(t *testing.T) {
	// One method, several problems downstream of the first: only the first
	// is reported.
	rep := mustUnlinked(t, `
.class Main
.method static main ( ) void
    pop
    pop
    iload 9
    return
.end
.end
`)
	if len(rep.Errors()) != 1 {
		t.Fatalf("want exactly 1 error, got %d:\n%s", len(rep.Errors()), rep)
	}
}

func TestVerifyErrorMessage(t *testing.T) {
	rep := mustUnlinked(t, `
.class Main
.method static main ( ) void
    pop
    return
.end
.method static g ( ) void
    pop
    return
.end
.end
`)
	err := rep.Err()
	var verr *classfile.VerifyError
	if !errors.As(err, &verr) {
		t.Fatalf("Err is not a *VerifyError: %v", err)
	}
	msg := verr.Error()
	if !strings.Contains(msg, classfile.RuleStackUnderflow) || !strings.Contains(msg, "and 1 more") {
		t.Fatalf("unexpected message: %s", msg)
	}
}

func TestReportJSONShape(t *testing.T) {
	rep := mustUnlinked(t, `
.class Main
.method static main ( ) void
    pop
    return
.end
.end
`)
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Findings []struct {
			Method  string `json:"method"`
			PC      uint32 `json:"pc"`
			Rule    string `json:"rule"`
			Message string `json:"message"`
		} `json:"findings"`
	}
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatal(err)
	}
	if len(decoded.Findings) != 1 || decoded.Findings[0].Rule != classfile.RuleStackUnderflow {
		t.Fatalf("bad JSON report: %s", data)
	}
	if decoded.Findings[0].Method != "Main.main" {
		t.Fatalf("bad method name: %s", data)
	}
}

func TestVerifyLinkedProgramToo(t *testing.T) {
	// Verification must also work on linked programs (the serve registry
	// path), where symbolic refs are already resolved.
	prog, err := jasm.Assemble(`
.class Main
.method static main ( ) void
    iconst 1
    pop
    return
.end
.end
.entry Main main
`)
	if err != nil {
		t.Fatal(err)
	}
	if rep := classfile.Verify(prog); rep.Reject() {
		t.Fatalf("rejected linked program:\n%s", rep)
	}
}
