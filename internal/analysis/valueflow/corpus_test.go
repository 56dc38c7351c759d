package valueflow_test

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analysis/valueflow"
	"repro/internal/bytecode"
	"repro/internal/cfg"
	"repro/internal/classfile"
	"repro/internal/jasm"
)

// TestAdversarialCorpus runs Compute over committed hostile programs —
// recursion cycles, never-returning callees, null-receiver dispatch,
// handler self-loops, wide switches — and pins the degradation contract:
// "expect: facts" programs must produce a non-top, internally consistent
// table; "expect: top" programs must degrade to the claim-free fallback.
// Either way Compute must return, never panic. "expect: rejected <rule>"
// programs never reach Compute: Link refuses them with that verifier rule,
// and TestPostLinkCorruptionDegrades plants each one after linking.
func TestAdversarialCorpus(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("testdata", "adversarial", "*.jasm"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) < 10 {
		t.Fatalf("corpus has %d programs, want >= 10", len(paths))
	}
	for _, path := range paths {
		path := path
		t.Run(filepath.Base(path), func(t *testing.T) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			src := string(data)
			want := corpusExpect(t, path, src)
			prog, err := jasm.Assemble(src)
			if rule, ok := strings.CutPrefix(want, "rejected "); ok {
				checkRejected(t, path, err, rule)
				return
			}
			if want != "facts" && want != "top" {
				t.Fatalf("%s: bad annotation 'expect: %s' (want facts, top or rejected <rule>)", path, want)
			}
			if err != nil {
				t.Fatalf("assemble: %v", err)
			}
			p, err := cfg.BuildProgram(prog)
			if err != nil {
				t.Fatalf("cfg: %v", err)
			}
			f := valueflow.Compute(p)
			if f == nil {
				t.Fatal("Compute returned nil")
			}
			if want == "top" {
				if !f.Top() {
					t.Fatalf("expected degradation to top, got %+v", f.Stats())
				}
				return
			}
			if f.Top() {
				t.Fatal("analysis degraded to top, expected facts")
			}
			checkConsistent(t, p, f)
			// Determinism: a second run must produce identical claims.
			if a, b := f.Stats(), valueflow.Compute(p).Stats(); a != b {
				t.Fatalf("nondeterministic: %+v vs %+v", a, b)
			}
		})
	}
}

// corpusExpect returns the "expect:" annotation of a corpus file.
func corpusExpect(t *testing.T, path, src string) string {
	t.Helper()
	for _, line := range strings.Split(src, "\n") {
		if i := strings.Index(line, "expect:"); i >= 0 {
			return strings.TrimSpace(line[i+len("expect:"):])
		}
	}
	t.Fatalf("%s: no 'expect:' annotation", path)
	return ""
}

// checkRejected asserts that err is the verifier's refusal with rule as its
// first rejecting finding.
func checkRejected(t *testing.T, path string, err error, rule string) {
	t.Helper()
	var verr *classfile.VerifyError
	if !errors.As(err, &verr) {
		t.Fatalf("%s: Link did not refuse the program with a verifier report: %v", path, err)
	}
	if got := verr.Report.Errors()[0].Rule; got != rule {
		t.Fatalf("%s: rejected with rule %s, want %s", path, got, rule)
	}
}

// TestPostLinkCorruptionDegrades pins the evaluator's guards on code the
// verifier never saw: each row links a valid program, then mutates it
// behind the linker's back. The failure must stay local, and must not
// discard the table.
func TestPostLinkCorruptionDegrades(t *testing.T) {
	t.Run("underflow", func(t *testing.T) {
		// The strict-evaluator bail: the mutated code underflows the
		// abstract stack, so the method is degraded to claim-free
		// reachability (zero consts, zero decided branches, nothing
		// analyzed).
		prog, err := jasm.Assemble(`
.entry Main main
.class Main
.method static main ( ) void
    return
.end
.end
`)
		if err != nil {
			t.Fatal(err)
		}
		enc := bytecode.NewEncoder()
		enc.Emit(bytecode.Instr{Op: bytecode.Pop})
		enc.Emit(bytecode.Instr{Op: bytecode.ReturnVoid})
		prog.Main.Code = enc.Bytes()
		p, err := cfg.BuildProgram(prog)
		if err != nil {
			t.Fatal(err)
		}
		f := valueflow.Compute(p)
		s := f.Stats()
		if s.MethodsAnalyzed != 0 {
			t.Fatalf("underflowing method counted as analyzed: %+v", s)
		}
		if s.IntConsts+s.FloatConsts+s.NonNull+s.StackConsts+s.Decided != 0 {
			t.Fatalf("underflowing code produced claims: %+v", s)
		}
		if s.Unreachable != 0 {
			t.Fatalf("degraded method's blocks must stay reachable: %+v", s)
		}
	})

	// The adversarial programs Link refuses: each row links a repaired
	// twin (old replaced by new in the file), then puts the file's own
	// code and frame sizes back. The pinned golden line (see factsLine)
	// holds every fact Compute derives from the planted program.
	for _, tc := range []struct {
		file, old, new, want string
	}{
		{"huge-locals.jasm", ".locals 70000", ".locals 0",
			"top=false blocks=1 reachable=1 decided=0 analyzed=0/1 03c3a447bb13440c17bafd41"},
		{"kind-confusion.jasm", "aconst_null", "iconst 0",
			"top=false blocks=2 reachable=2 decided=0 analyzed=1/1 086dcea42affafd2d42084a6"},
		{"uninit-merge.jasm", ".locals 2\n", ".locals 2\n    iconst 0\n    istore 1\n",
			"top=false blocks=7 reachable=7 decided=0 analyzed=2/2 9196362117a769aac0b52570"},
	} {
		t.Run(tc.file, func(t *testing.T) {
			data, err := os.ReadFile(filepath.Join("testdata", "adversarial", tc.file))
			if err != nil {
				t.Fatal(err)
			}
			src := string(data)
			planted, err := jasm.AssembleUnlinked(src)
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(src, tc.old) {
				t.Fatalf("%s does not contain %q", tc.file, tc.old)
			}
			prog, err := jasm.Assemble(strings.ReplaceAll(src, tc.old, tc.new))
			if err != nil {
				t.Fatalf("repaired twin: %v", err)
			}
			for i, c := range prog.Classes {
				for j, m := range c.Methods {
					pm := planted.Classes[i].Methods[j]
					m.Code, m.MaxLocals = pm.Code, pm.MaxLocals
				}
			}
			p, err := cfg.BuildProgram(prog)
			if err != nil {
				t.Fatal(err)
			}
			name := "adversarial-" + tc.file
			if got, want := factsLine(name, valueflow.Compute(p)), name+" "+tc.want; got != want {
				t.Fatalf("facts changed:\n got  %s\n want %s", got, want)
			}
		})
	}
}

// checkConsistent validates the structural invariants every non-top table
// must satisfy regardless of input.
func checkConsistent(t *testing.T, p *cfg.ProgramCFG, f *valueflow.Facts) {
	t.Helper()
	if f.NumBlocks() != p.NumBlocks() {
		t.Fatalf("facts cover %d blocks, cfg has %d", f.NumBlocks(), p.NumBlocks())
	}
	if entry := p.MethodEntry(p.Program.Main); entry != nil {
		if bf := f.Block(entry.ID); bf == nil || !bf.Reachable {
			t.Fatal("main entry not reachable")
		}
	}
	for id := 0; id < f.NumBlocks(); id++ {
		bid := cfg.BlockID(id)
		bf := f.Block(bid)
		if !bf.Reachable {
			if bf.Decided != cfg.NoBlock || len(bf.IntConsts) != 0 || len(bf.NonNull) != 0 {
				t.Fatalf("block %d: claims on an unreachable block", id)
			}
			continue
		}
		if d := bf.Decided; d != cfg.NoBlock {
			blk := p.Block(bid)
			ok := false
			for _, s := range blk.StaticSuccessors() {
				if s == d {
					ok = true
				}
			}
			if !ok {
				t.Fatalf("block %d: decided %v is not a static successor", id, d)
			}
		}
		seen := map[int32]bool{}
		for _, c := range bf.IntConsts {
			if seen[c.Slot] {
				t.Fatalf("block %d: duplicate const claim for slot %d", id, c.Slot)
			}
			seen[c.Slot] = true
		}
	}
}
