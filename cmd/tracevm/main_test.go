package main

import (
	"errors"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro"
)

func TestLoadProgramFromFiles(t *testing.T) {
	dir := t.TempDir()

	mj := filepath.Join(dir, "p.mj")
	if err := os.WriteFile(mj, []byte(`class Main { static void main() { Sys.printlnInt(1); } }`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := load("", "", []string{mj}); err != nil {
		t.Errorf("load .mj: %v", err)
	}

	jasmFile := filepath.Join(dir, "p.jasm")
	jasmSrc := `
.class Main
.method static main ( ) void
    return
.end
.end
.entry Main main
`
	if err := os.WriteFile(jasmFile, []byte(jasmSrc), 0o644); err != nil {
		t.Fatal(err)
	}
	prog, err := load("", "", []string{jasmFile})
	if err != nil {
		t.Fatalf("load .jasm: %v", err)
	}
	if prog.Linked() {
		t.Error(".jasm came back linked; lint needs it unlinked")
	}

	jtm := filepath.Join(dir, "p.jtm")
	f, err := os.Create(jtm)
	if err != nil {
		t.Fatal(err)
	}
	if err := repro.SaveModule(f, prog); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if prog, err := load("", "", []string{jtm}); err != nil || prog.Linked() {
		t.Errorf("load .jtm: %v (linked %v, want unlinked)", err, prog != nil && prog.Linked())
	}

	if _, err := load("compress", "", nil); err != nil {
		t.Errorf("load workload: %v", err)
	}
	if _, err := load("", "", nil); err == nil {
		t.Error("no input accepted")
	}
	if _, err := load("", "", []string{filepath.Join(dir, "missing.mj")}); err == nil {
		t.Error("missing file accepted")
	}
}

func TestRunEndToEnd(t *testing.T) {
	dir := t.TempDir()
	mj := filepath.Join(dir, "p.mj")
	if err := os.WriteFile(mj, []byte(`class Main { static void main() { Sys.printlnInt(7); } }`), 0o644); err != nil {
		t.Fatal(err)
	}
	dot := filepath.Join(dir, "bcg.dot")
	var out strings.Builder
	if err := runCmd(&out, []string{"-stats", "-traces", "-events", "16", "-dot", dot, mj}); err != nil {
		t.Fatalf("run: %v", err)
	}
	data, err := os.ReadFile(dot)
	if err != nil {
		t.Fatalf("dot file: %v", err)
	}
	if len(data) == 0 {
		t.Error("empty DOT output")
	}
	if out.String() != "7\n" {
		t.Errorf("program output %q, want 7", out.String())
	}
	if err := runCmd(io.Discard, []string{"-mode", "warp", mj}); err == nil || !strings.Contains(err.Error(), "trace-deploy") {
		t.Errorf("bad mode: err = %v, want one naming trace-deploy among the modes", err)
	}
	out.Reset()
	if err := runCmd(&out, []string{"-mode", "trace-deploy", mj}); err != nil || out.String() != "7\n" {
		t.Errorf("trace-deploy run: output %q, err %v; want 7", out.String(), err)
	}
}

// TestRunRefusesUnverifiableProgram runs, through the built binary, a jasm
// program that reads a local it never stored and adds two references: run
// links it, linking verifies it, so it exits 1 naming the first rule.
func TestRunRefusesUnverifiableProgram(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the tracevm binary")
	}
	dir := t.TempDir()
	prog := filepath.Join(dir, "unverified.jasm")
	if err := os.WriteFile(prog, []byte(`
.class Main
.method static main ( ) void
    .locals 1
    iload 0
    invokestatic Main.print
    aconst_null
    aconst_null
    iadd
    invokestatic Main.print
    return
.end
.native static print ( int ) void println_int
.end
.entry Main main
`), 0o644); err != nil {
		t.Fatal(err)
	}
	bin := filepath.Join(dir, "tracevm")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	out, err := exec.Command(bin, "run", "-mode", "plain", prog).CombinedOutput()
	var exitErr *exec.ExitError
	if !errors.As(err, &exitErr) || exitErr.ExitCode() != 1 {
		t.Fatalf("want exit 1, got %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "uninit-local") {
		t.Errorf("output does not name the rule uninit-local:\n%s", out)
	}
}

// dotRun runs a program under the profiler with its DOT on stdout, as
// "tracevm run -mode profile -dot - ..." does, and returns what it printed.
func dotRun(t *testing.T, args ...string) (string, error) {
	t.Helper()
	var out strings.Builder
	err := runCmd(&out, append([]string{"-mode", "profile", "-dot", "-"}, args...))
	return out.String(), err
}

func TestDumpWorkload(t *testing.T) {
	// soot is the fastest workload.
	out, err := dotRun(t, "-min", "1000", "-workload", "soot")
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.HasPrefix(out, "digraph bcg {") {
		t.Errorf("stdout is not the DOT graph alone:\n%s", out)
	}
}

func TestDumpFile(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "p.mj")
	if err := os.WriteFile(src, []byte(`class Main { static void main() {
        int s = 0;
        for (int i = 0; i < 1000; i = i + 1) { s = s + i; }
        Sys.printlnInt(s);
    } }`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := dotRun(t, "-min", "1", "-delay", "1", src); err != nil {
		t.Fatalf("run: %v", err)
	}
}

func TestDumpErrors(t *testing.T) {
	if _, err := dotRun(t); err == nil {
		t.Error("no input accepted")
	}
	if _, err := dotRun(t, "-workload", "nope"); err == nil {
		t.Error("unknown workload accepted")
	}
}
