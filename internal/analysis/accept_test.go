package analysis_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/cfg"
	"repro/internal/classfile"
	"repro/internal/minijava"
	"repro/internal/workload"
)

// TestVerifyAcceptsWorkloads pins the acceptance half of the verifier
// contract: every program the MiniJava compiler emits for the benchmark
// suite passes verification.
func TestVerifyAcceptsWorkloads(t *testing.T) {
	for _, w := range workload.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			prog, _, err := w.Compile()
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			rep := classfile.Verify(prog)
			if rep.Reject() {
				t.Fatalf("workload %s rejected:\n%s", w.Name, rep)
			}
			for _, f := range rep.Warnings() {
				t.Logf("warning: %s", f)
			}
		})
	}
}

// TestVerifyAcceptsExamples verifies the MiniJava programs embedded in the
// example binaries (notably the exceptions example, which exercises the
// handler-entry states).
func TestVerifyAcceptsExamples(t *testing.T) {
	matches, err := filepath.Glob(filepath.Join("..", "..", "examples", "*", "main.go"))
	if err != nil {
		t.Fatal(err)
	}
	const marker = "const src = `"
	found := 0
	for _, path := range matches {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		s := string(data)
		i := strings.Index(s, marker)
		if i < 0 {
			continue
		}
		rest := s[i+len(marker):]
		j := strings.Index(rest, "`")
		if j < 0 {
			t.Fatalf("%s: unterminated source literal", path)
		}
		found++
		prog, err := minijava.Compile(rest[:j])
		if err != nil {
			t.Fatalf("%s: compile: %v", path, err)
		}
		if rep := classfile.Verify(prog); rep.Reject() {
			t.Errorf("%s rejected:\n%s", path, rep)
		}
	}
	if found == 0 {
		t.Fatal("no example sources found")
	}
}

// TestHintsOnWorkloads sanity-checks the dataflow pass on real programs:
// the loopy benchmarks must expose loop headers and statically-unique
// blocks, and every unique successor must be a real static successor of its
// block.
func TestHintsOnWorkloads(t *testing.T) {
	for _, w := range workload.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			_, pcfg, err := w.Compile()
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			h := analysis.ComputeHints(pcfg)
			if h.NumBlocks() != pcfg.NumBlocks() {
				t.Fatalf("hints cover %d blocks, program has %d", h.NumBlocks(), pcfg.NumBlocks())
			}
			if len(h.LoopHeaders()) == 0 {
				t.Errorf("workload %s has no loop headers", w.Name)
			}
			unique := h.UniqueBlocks()
			if len(unique) == 0 {
				t.Errorf("workload %s has no statically-unique blocks", w.Name)
			}
			for _, id := range unique {
				b := pcfg.Block(id)
				succ := h.UniqueSucc[id]
				found := false
				for _, s := range b.StaticSuccessors() {
					if s == succ {
						found = true
					}
				}
				if !found {
					t.Fatalf("block %v: unique successor %d is not a static successor", b, succ)
				}
				if len(b.StaticSuccessors()) != 1 {
					t.Fatalf("block %v classified unique but has %d static successors", b, len(b.StaticSuccessors()))
				}
			}
		})
	}
}

// TestHintsLoopHeaderIsDominating spot-checks the back-edge definition on
// one workload: a loop header must dominate some predecessor that jumps
// back to it.
func TestHintsLoopHeaderIsDominating(t *testing.T) {
	w, err := workload.ByName("scimark")
	if err != nil {
		t.Fatal(err)
	}
	_, pcfg, err := w.Compile()
	if err != nil {
		t.Fatal(err)
	}
	h := analysis.ComputeHints(pcfg)
	for _, hd := range h.LoopHeaders() {
		// Find a predecessor of hd that hd dominates (via the idom chain).
		ok := false
		for _, b := range pcfg.Blocks {
			isPred := false
			for _, s := range b.StaticSuccessors() {
				if s == hd {
					isPred = true
				}
			}
			if !isPred {
				continue
			}
			for x := b.ID; x != cfg.NoBlock; x = h.Idom[x] {
				if x == hd {
					ok = true
					break
				}
			}
			if ok {
				break
			}
		}
		if !ok {
			t.Fatalf("loop header %d has no back-edge predecessor it dominates", hd)
		}
	}
}
