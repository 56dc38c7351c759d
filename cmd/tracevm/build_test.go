package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestAssembleAndDisassembleModule(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "p.jasm")
	if err := os.WriteFile(src, []byte(`
.class Main
.field static counter int
.native static p ( int ) void println_int
.method static main ( ) void
    iconst 3 putstatic Main.counter
    getstatic Main.counter invokestatic Main.p
    return
.end
.end
.entry Main main
`), 0o644); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "p.jtm")
	if err := buildCmd(io.Discard, []string{"-o", out, src}); err != nil {
		t.Fatalf("assemble: %v", err)
	}
	var listing strings.Builder
	if err := buildCmd(&listing, []string{"-S", out}); err != nil {
		t.Fatalf("disassemble: %v", err)
	}
	for _, want := range []string{"field static counter int", "<native println_int>", "putstatic"} {
		if !strings.Contains(listing.String(), want) {
			t.Errorf("listing lacks %q:\n%s", want, listing.String())
		}
	}
}

func TestJasmErrors(t *testing.T) {
	if err := buildCmd(io.Discard, nil); err == nil {
		t.Error("no input accepted")
	}
	if err := buildCmd(io.Discard, []string{"-o", "p.jtm", "/does/not/exist.jasm"}); err == nil {
		t.Error("missing input accepted")
	}
	dir := t.TempDir()
	src := filepath.Join(dir, "p.jasm")
	if err := os.WriteFile(src, []byte(".class A\n.end"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := buildCmd(io.Discard, []string{src}); err == nil {
		t.Error("missing -o accepted")
	}
	notModule := filepath.Join(dir, "p.jtm")
	if err := os.WriteFile(notModule, []byte(".class A\n.end"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := buildCmd(io.Discard, []string{"-S", notModule}); err == nil {
		t.Error("disassembling non-module accepted")
	}
}

func TestCompileToModuleAndDisassemble(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "p.mj")
	if err := os.WriteFile(src, []byte(`
class Point {
    int x;
    void init(int v) { x = v; }
    int get() { return x; }
}
class Main {
    static void main() { Sys.printlnInt(new Point(4).get()); }
}`), 0o644); err != nil {
		t.Fatal(err)
	}

	out := filepath.Join(dir, "p.jtm")
	if err := buildCmd(io.Discard, []string{"-o", out, src}); err != nil {
		t.Fatalf("compile: %v", err)
	}
	if fi, err := os.Stat(out); err != nil || fi.Size() == 0 {
		t.Fatalf("module not written: %v", err)
	}

	// cli.golden pins the listing's text; here it need only not error for a
	// file and for a built-in workload.
	if err := buildCmd(io.Discard, []string{"-S", src}); err != nil {
		t.Errorf("disassemble file: %v", err)
	}
	if err := buildCmd(io.Discard, []string{"-S", "-workload", "scimark"}); err != nil {
		t.Errorf("disassemble workload: %v", err)
	}
}

func TestExplicitEntry(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "p.mj")
	if err := os.WriteFile(src, []byte(`
class A { static void main() { Sys.printlnInt(1); } }
class B { static void main() { Sys.printlnInt(2); } }`), 0o644); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "p.jtm")
	// Ambiguous entry without -entry.
	if err := buildCmd(io.Discard, []string{"-o", out, src}); err == nil {
		t.Error("ambiguous main accepted")
	}
	if err := buildCmd(io.Discard, []string{"-o", out, "-entry", "B", src}); err != nil {
		t.Errorf("explicit entry failed: %v", err)
	}
}

func TestBuildErrors(t *testing.T) {
	if err := buildCmd(io.Discard, []string{"-S"}); err == nil {
		t.Error("no input accepted")
	}
	if err := buildCmd(io.Discard, []string{"-workload", "nope-workload"}); err == nil {
		t.Error("unknown workload accepted")
	}
	dir := t.TempDir()
	src := filepath.Join(dir, "p.mj")
	if err := os.WriteFile(src, []byte(`class A { static void main() {} }`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := buildCmd(io.Discard, []string{src}); err == nil {
		t.Error("missing -o and -S accepted")
	}
}
