package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

const cliGoldenPath = "testdata/cli.golden"

// cliCases are the command lines testdata/cli.golden pins, run in order
// from the repository root. "$TMP" in an argument is one scratch directory
// shared by every case, so a case can run a module an earlier case wrote.
var cliCases = []struct {
	name string   // the case's heading in cli.golden
	argv []string // argv[0] names the binary's package under cmd/
	// stderr pins standard error too. It is set only where stderr carries
	// statistics; error text is not pinned.
	stderr bool
	file   string // a file the command writes, pinned after its output
}{
	{"run trace stats", []string{"tracevm", "run", "-workload", "compress", "-mode", "trace", "-stats", "-traces"}, true, ""},
	{"run profile dot file", []string{"tracevm", "run", "-mode", "profile", "-dot", "$TMP/loop.dot", "examples/tracelint/loop.mj"}, false, "$TMP/loop.dot"},
	{"dot stdout", []string{"tracevm", "run", "-mode", "profile", "-dot", "-", "-min", "16", "-workload", "compress"}, false, ""},
	{"listing workload", []string{"tracevm", "build", "-S", "-workload", "compress"}, false, ""},
	{"listing optimized", []string{"tracevm", "build", "-O", "-S", "examples/tracelint/loop.mj"}, true, ""},
	{"build minijava module", []string{"tracevm", "build", "-o", "$TMP/loop.jtm", "examples/tracelint/loop.mj"}, false, ""},
	{"run minijava module", []string{"tracevm", "run", "-stats", "$TMP/loop.jtm"}, true, ""},
	{"run jasm", []string{"tracevm", "run", "-stats", "internal/analysis/valueflow/testdata/adversarial/widening-loop.jasm"}, true, ""},
	{"build jasm module", []string{"tracevm", "build", "-o", "$TMP/wl.jtm", "internal/analysis/valueflow/testdata/adversarial/widening-loop.jasm"}, false, ""},
	{"run jasm module", []string{"tracevm", "run", "-mode", "plain", "-stats", "$TMP/wl.jtm"}, true, ""},
	{"lint text", []string{"tracevm", "lint", "examples/tracelint/loop.mj"}, false, ""},
	{"lint json", []string{"tracevm", "lint", "-json", "examples/tracelint/loop.mj"}, false, ""},
	{"lint json rejected", []string{"tracevm", "lint", "-json", "internal/analysis/testdata/malformed/stack-underflow.jasm"}, false, ""},
	{"lint module", []string{"tracevm", "lint", "$TMP/wl.jtm"}, false, ""},
	{"snap summary", []string{"tracevm", "snap", "internal/snapshot/testdata/v1.tsnap"}, false, ""},
	{"snap nodes", []string{"tracevm", "snap", "-nodes", "internal/snapshot/testdata/v1.tsnap"}, false, ""},
	{"snap json", []string{"tracevm", "snap", "-json", "internal/snapshot/testdata/v1.tsnap"}, false, ""},
	{"snap diff", []string{"tracevm", "snap", "-diff", "internal/snapshot/testdata/v1.tsnap", "internal/snapshot/testdata/v1.tsnap"}, false, ""},
	{"bench table 1", []string{"tracevm", "bench", "-table", "1", "-maxsteps", "200000"}, false, ""},
}

// renderCLIGolden builds the binaries cliCases name and runs every case,
// returning the golden file's text.
func renderCLIGolden(t *testing.T) string {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	bin, tmp := t.TempDir(), t.TempDir()
	args := []string{"build", "-o", bin + string(os.PathSeparator)}
	seen := map[string]bool{}
	for _, c := range cliCases {
		if !seen[c.argv[0]] {
			seen[c.argv[0]] = true
			args = append(args, "./cmd/"+c.argv[0])
		}
	}
	build := exec.Command("go", args...)
	build.Dir = root
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go %s: %v\n%s", strings.Join(args, " "), err, out)
	}

	expand := func(s string) string { return strings.ReplaceAll(s, "$TMP", tmp) }
	var b strings.Builder
	for _, c := range cliCases {
		argv := make([]string, len(c.argv)-1)
		for i, a := range c.argv[1:] {
			argv[i] = expand(a)
		}
		cmd := exec.Command(filepath.Join(bin, c.argv[0]), argv...)
		cmd.Dir = root
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		code := 0
		if err := cmd.Run(); err != nil {
			var exitErr *exec.ExitError
			if !errors.As(err, &exitErr) {
				t.Fatalf("%s: %v", c.name, err)
			}
			code = exitErr.ExitCode()
		}
		fmt.Fprintf(&b, "== %s\nexit %d\n-- stdout\n%s", c.name, code, stdout.String())
		if c.stderr {
			// A tool prefixes its diagnostics with its own name, which
			// is not part of what the case pins.
			prefix := c.argv[0] + ": "
			lines := strings.SplitAfter(stderr.String(), "\n")
			for i, l := range lines {
				lines[i] = strings.TrimPrefix(l, prefix)
			}
			fmt.Fprintf(&b, "-- stderr\n%s", strings.Join(lines, ""))
		}
		if c.file != "" {
			data, err := os.ReadFile(expand(c.file))
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			fmt.Fprintf(&b, "-- %s\n%s", c.file, data)
		}
	}
	return strings.ReplaceAll(b.String(), tmp, "$TMP")
}

// TestCLIGolden pins the offline tool's output: each case's stdout and exit
// status, and where set its statistics on stderr and the file it writes,
// must match testdata/cli.golden.
//
// To regenerate the file on purpose, delete it and run `go test -run
// TestCLIGolden ./cmd/tracevm`: the test writes it from the code under test
// and fails once so the rewrite cannot pass unnoticed.
func TestCLIGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the command-line tools")
	}
	got := renderCLIGolden(t)
	data, err := os.ReadFile(cliGoldenPath)
	if os.IsNotExist(err) {
		if err := os.MkdirAll(filepath.Dir(cliGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(cliGoldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("wrote %s; re-run to compare", cliGoldenPath)
	}
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(string(data), "\n")
	lines := strings.Split(got, "\n")
	bad := 0
	for i := 0; i < len(lines) || i < len(want); i++ {
		var g, w string
		if i < len(lines) {
			g = lines[i]
		}
		if i < len(want) {
			w = want[i]
		}
		if g != w {
			bad++
			if bad <= 10 {
				t.Errorf("line %d changed:\n got  %s\n want %s", i+1, g, w)
			}
		}
	}
	if bad > 0 {
		t.Fatalf("%d lines differ (golden %d lines, rendered %d)", bad, len(want), len(lines))
	}
}
