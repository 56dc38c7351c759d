package main

import (
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// lintSource lints one source written to a temp file and returns (ok, output).
func lintSource(t *testing.T, name, src string, jsonOut bool) (bool, string) {
	return lintStrict(t, name, src, jsonOut, false)
}

func lintStrict(t *testing.T, name, src string, jsonOut, strict bool) (bool, string) {
	t.Helper()
	dir := t.TempDir()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	ok := lintFile(&out, path, jsonOut, true, strict)
	return ok, out.String()
}

func TestLintAcceptsAndPrintsFacts(t *testing.T) {
	ok, out := lintSource(t, "prog.mj", `
class Main {
    static void main() {
        int i = 0;
        while (i < 10) { i = i + 1; }
        Sys.printlnInt(i);
    }
}
`, false)
	if !ok {
		t.Fatalf("valid program rejected:\n%s", out)
	}
	if !strings.Contains(out, "ok") || !strings.Contains(out, "loop headers at pc") {
		t.Fatalf("missing facts in output:\n%s", out)
	}
	if !strings.Contains(out, "single-successor blocks") {
		t.Fatalf("missing unique-successor facts:\n%s", out)
	}
}

func TestLintRejectsWithRule(t *testing.T) {
	ok, out := lintSource(t, "bad.jasm", `
.class Main
.method static main ( ) void
    pop
    return
.end
.end
`, false)
	if ok {
		t.Fatalf("stack underflow accepted:\n%s", out)
	}
	if !strings.Contains(out, "stack-underflow") || !strings.Contains(out, "Main.main") {
		t.Fatalf("report missing rule or method:\n%s", out)
	}
}

func TestLintJSONShape(t *testing.T) {
	ok, out := lintSource(t, "bad.jasm", `
.class Main
.method static main ( ) void
    pop
    return
.end
.end
`, true)
	if ok {
		t.Fatal("stack underflow accepted")
	}
	var res struct {
		File   string `json:"file"`
		OK     bool   `json:"ok"`
		Report struct {
			Findings []struct {
				Rule string `json:"rule"`
			} `json:"findings"`
		} `json:"report"`
	}
	if err := json.Unmarshal([]byte(out), &res); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, out)
	}
	if res.OK || len(res.Report.Findings) != 1 || res.Report.Findings[0].Rule != "stack-underflow" {
		t.Fatalf("unexpected JSON result: %+v", res)
	}
}

func TestLintStrictPromotesUnreachableWarning(t *testing.T) {
	// Dead code after an unconditional goto draws the warn-only
	// unreachable-block finding: accepted by default, rejected under -strict.
	src := `
.class Main
.method static main ( ) void
    goto L
    iconst 1
    pop
    return
L:  return
.end
.end
`
	ok, out := lintStrict(t, "dead.jasm", src, false, false)
	if !ok {
		t.Fatalf("warn-only finding rejected without -strict:\n%s", out)
	}
	if !strings.Contains(out, "unreachable-block") {
		t.Fatalf("warning not printed:\n%s", out)
	}
	ok, out = lintStrict(t, "dead.jasm", src, false, true)
	if ok {
		t.Fatalf("-strict accepted a program with unreachable-block warnings:\n%s", out)
	}
	if !strings.Contains(out, "unreachable-block") {
		t.Fatalf("strict failure lost the finding:\n%s", out)
	}
	if strings.Contains(out, ": ok") {
		t.Fatalf("strict failure still printed ok:\n%s", out)
	}
}

func TestLintStrictExitCode(t *testing.T) {
	// End-to-end exit-status check through the built binary: 0 without
	// -strict, 1 with it, on the same warning-only input.
	if testing.Short() {
		t.Skip("builds the tracevm binary")
	}
	dir := t.TempDir()
	prog := filepath.Join(dir, "dead.jasm")
	if err := os.WriteFile(prog, []byte(`
.class Main
.method static main ( ) void
    goto L
    iconst 1
    pop
    return
L:  return
.end
.end
`), 0o644); err != nil {
		t.Fatal(err)
	}
	bin := filepath.Join(dir, "tracevm")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	if out, err := exec.Command(bin, "lint", prog).CombinedOutput(); err != nil {
		t.Fatalf("want exit 0 without -strict, got %v\n%s", err, out)
	}
	out, err := exec.Command(bin, "lint", "-strict", prog).CombinedOutput()
	var exitErr *exec.ExitError
	if !errors.As(err, &exitErr) || exitErr.ExitCode() != 1 {
		t.Fatalf("want exit 1 under -strict, got %v\n%s", err, out)
	}
}

func TestLintValueFlowFacts(t *testing.T) {
	// A branch on a known constant: the value-flow dump must report the
	// decided branch, the arm it kills, and the program-level summary.
	ok, out := lintSource(t, "const.jasm", `
.class Main
.method static main ( ) void
.locals 1
    iconst 7
    istore 0
    iload 0
    ifeq DEAD
    return
DEAD:
    return
.end
.end
.entry Main main
`, false)
	if !ok {
		t.Fatalf("valid program rejected:\n%s", out)
	}
	if !strings.Contains(out, "decided branches at pc") {
		t.Fatalf("missing decided-branch facts:\n%s", out)
	}
	if !strings.Contains(out, "unreachable blocks at pc") {
		t.Fatalf("missing value-flow unreachable facts:\n%s", out)
	}
	if !strings.Contains(out, "value-flow:") {
		t.Fatalf("missing value-flow summary:\n%s", out)
	}
}

func TestLintValueFlowJSON(t *testing.T) {
	ok, out := lintSource(t, "const.jasm", `
.class Main
.method static main ( ) void
.locals 1
    iconst 7
    istore 0
    iload 0
    ifeq DEAD
    return
DEAD:
    return
.end
.end
.entry Main main
`, true)
	if !ok {
		t.Fatalf("valid program rejected:\n%s", out)
	}
	var res struct {
		OK    bool `json:"ok"`
		Facts []struct {
			Method         string   `json:"method"`
			DecidedPCs     []uint32 `json:"decidedBranchPCs"`
			UnreachablePCs []uint32 `json:"unreachablePCs"`
		} `json:"facts"`
		ValueFlow *struct {
			Decided     int  `json:"Decided"`
			Unreachable int  `json:"Unreachable"`
			Top         bool `json:"Top"`
		} `json:"valueflow"`
	}
	if err := json.Unmarshal([]byte(out), &res); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, out)
	}
	if !res.OK || res.ValueFlow == nil {
		t.Fatalf("missing valueflow block: %+v\n%s", res, out)
	}
	if res.ValueFlow.Top || res.ValueFlow.Decided == 0 || res.ValueFlow.Unreachable == 0 {
		t.Fatalf("unexpected valueflow stats: %+v", res.ValueFlow)
	}
	found := false
	for _, mf := range res.Facts {
		if len(mf.DecidedPCs) > 0 && len(mf.UnreachablePCs) > 0 {
			found = true
		}
	}
	if !found {
		t.Fatalf("no method reported decided+unreachable PCs: %s", out)
	}
}

func TestLintUnlinkableJasmStillReported(t *testing.T) {
	// References a missing method: unlinkable, but the verifier still
	// produces a precise report because the jasm path analyzes unlinked.
	ok, out := lintSource(t, "unlinkable.jasm", `
.class Main
.method static main ( ) void
    invokestatic Missing.run
    return
.end
.end
`, false)
	if ok {
		t.Fatalf("bad ref accepted:\n%s", out)
	}
	if !strings.Contains(out, "bad-ref-index") {
		t.Fatalf("missing bad-ref-index finding:\n%s", out)
	}
}
