package analysis_test

import (
	"encoding/hex"
	"errors"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/classfile"
	"repro/internal/jasm"
)

// corpusExpect extracts the "expect: <rule>" annotation from a corpus file.
func corpusExpect(t *testing.T, path, src string) string {
	t.Helper()
	for _, line := range strings.Split(src, "\n") {
		if i := strings.Index(line, "expect:"); i >= 0 {
			return strings.TrimSpace(line[i+len("expect:"):])
		}
	}
	t.Fatalf("%s: no 'expect: <rule>' annotation", path)
	return ""
}

// loadHexCorpus builds a one-method program around raw method code given as
// hex bytes. Format: '#' comments, a "locals N" line, then hex byte pairs.
func loadHexCorpus(t *testing.T, path, src string) *classfile.Program {
	t.Helper()
	locals := 0
	var code []byte
	for _, line := range strings.Split(src, "\n") {
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		if fields[0] == "locals" {
			n, err := strconv.Atoi(fields[1])
			if err != nil {
				t.Fatalf("%s: bad locals line: %v", path, err)
			}
			locals = n
			continue
		}
		for _, f := range fields {
			b, err := hex.DecodeString(f)
			if err != nil {
				t.Fatalf("%s: bad hex %q: %v", path, f, err)
			}
			code = append(code, b...)
		}
	}
	b := classfile.NewBuilder()
	m := b.Class("Main").Method("main", nil, classfile.TVoid, true)
	m.MaxLocals = locals
	m.Code = code
	return b.Program()
}

// TestCorpusRejected pins the rejection half of the verifier contract: every
// committed malformed program is rejected, with the rule its annotation
// names, by Verify and by Link.
func TestCorpusRejected(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("testdata", "malformed", "*"))
	if err != nil {
		t.Fatal(err)
	}
	var cases []string
	for _, p := range paths {
		switch filepath.Ext(p) {
		case ".jasm", ".hex":
			cases = append(cases, p)
		}
	}
	if len(cases) < 8 {
		t.Fatalf("corpus has %d programs, want >= 8", len(cases))
	}
	for _, path := range cases {
		path := path
		t.Run(filepath.Base(path), func(t *testing.T) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			src := string(data)
			want := corpusExpect(t, path, src)

			var prog *classfile.Program
			if filepath.Ext(path) == ".hex" {
				prog = loadHexCorpus(t, path, src)
			} else {
				// Unlinked: these programs must be analyzable even though
				// the linker would refuse most of them.
				prog, err = jasm.AssembleUnlinked(src)
				if err != nil {
					t.Fatalf("assemble: %v", err)
				}
			}

			rep := classfile.Verify(prog)
			if !rep.Reject() {
				t.Fatalf("program accepted, want rejection with rule %q\nreport: %s", want, rep)
			}
			found := false
			for _, f := range rep.Errors() {
				if f.Rule == want {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("no finding with rule %q; got:\n%s", want, rep)
			}
			if err := rep.Err(); err == nil {
				t.Fatal("Report.Err returned nil for a rejecting report")
			}

			// Linking runs the same verifier, so it refuses the program
			// with the same rule.
			if filepath.Ext(path) == ".hex" {
				err = prog.Link()
			} else {
				_, err = jasm.Assemble(src)
			}
			var verr *classfile.VerifyError
			if !errors.As(err, &verr) {
				t.Fatalf("Link did not refuse the program with a verifier report: %v", err)
			}
			if got := verr.Report.Errors()[0].Rule; got != want {
				t.Fatalf("Link refused the program with rule %s, want %s", got, want)
			}
		})
	}
}

// TestCorpusFirstFindingDeterministic re-verifies every corpus program and
// checks the report is stable run to run (the worklist order must not leak
// into the findings).
func TestCorpusFirstFindingDeterministic(t *testing.T) {
	paths, _ := filepath.Glob(filepath.Join("testdata", "malformed", "*.jasm"))
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		prog1, err := jasm.AssembleUnlinked(string(data))
		if err != nil {
			t.Fatal(err)
		}
		prog2, err := jasm.AssembleUnlinked(string(data))
		if err != nil {
			t.Fatal(err)
		}
		r1, r2 := classfile.Verify(prog1), classfile.Verify(prog2)
		if r1.String() != r2.String() {
			t.Fatalf("%s: non-deterministic report:\n%s\n--- vs ---\n%s", path, r1, r2)
		}
	}
}
