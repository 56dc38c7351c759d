package harness

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/profile"
)

const tablesGoldenPath = "testdata/tables.golden"

// tablesGoldenSteps is the per-run step budget of the golden file's tables:
// long enough for every workload to build and reuse traces, short enough
// that the 48 table runs render in about two seconds.
const tablesGoldenSteps = 2_000_000

// goldenModes are the dispatch modes of the per-workload lines.
var goldenModes = []core.Mode{core.ModeInstr, core.ModePlain, core.ModeProfile, core.ModeTrace, core.ModeTraceDeploy}

// modeLine runs one workload to completion under one mode and renders its
// golden line: a digest of the program's output and every counter that does
// not depend on wall-clock time.
func modeLine(s *Suite, name string, m core.Mode) (string, error) {
	c, err := s.compileWorkload(name)
	if err != nil {
		return "", err
	}
	var out bytes.Buffer
	sess, err := core.NewSession(c.prog, c.cfg, core.SessionOptions{
		Mode:   m,
		Params: profile.DefaultParams(),
		Out:    &out,
		Facts:  c.facts,
	})
	if err != nil {
		return "", err
	}
	if err := sess.Run(); err != nil {
		return "", fmt.Errorf("%s (%s): %w", name, m, err)
	}
	ctr := sess.Counters
	sum := sha256.Sum256(out.Bytes())
	return fmt.Sprintf("%s %s out=%x instrs=%d instr_dispatches=%d block_dispatches=%d trace_dispatches=%d built=%d retired=%d signals=%d",
		name, m, sum[:8], ctr.Instrs, ctr.InstrDispatches, ctr.BlockDispatches,
		ctr.TraceDispatches, ctr.TracesBuilt, ctr.TracesRetired, ctr.Signals), nil
}

// renderTablesGolden renders the golden file: Tables I–V at a fixed step
// budget, then one line per workload and mode, each a whole run.
func renderTablesGolden() (string, error) {
	s := NewSuite()
	s.MaxSteps = tablesGoldenSteps
	var b strings.Builder
	for _, table := range []func() (Table, error){s.TableI, s.TableII, s.TableIII, s.TableIV, s.TableV} {
		tb, err := table()
		if err != nil {
			return "", err
		}
		b.WriteString(tb.Format())
		b.WriteByte('\n')
	}
	for _, name := range s.Workloads {
		for _, m := range goldenModes {
			line, err := modeLine(s, name, m)
			if err != nil {
				return "", err
			}
			b.WriteString(line)
			b.WriteByte('\n')
		}
	}
	return b.String(), nil
}

// TestTablesGolden pins trace selection end to end: Tables I–V and, for
// every workload under every dispatch mode, the program's output and its
// deterministic counters must match testdata/tables.golden. A refactor of
// the dispatch loop, the profiler or the trace cache that claims to change
// no behaviour leaves this file unchanged.
//
// To regenerate the file on purpose (a change meant to alter trace
// selection), delete it and run `go test -run TestTablesGolden
// ./internal/harness`: the test writes it from the code under test and
// fails once so the rewrite cannot pass unnoticed.
func TestTablesGolden(t *testing.T) {
	got, err := renderTablesGolden()
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(tablesGoldenPath)
	if os.IsNotExist(err) {
		if err := os.WriteFile(tablesGoldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("wrote %s; re-run to compare", tablesGoldenPath)
	}
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(string(data), "\n")
	lines := strings.Split(got, "\n")
	if len(want) != len(lines) {
		t.Fatalf("golden has %d lines, rendered %d", len(want), len(lines))
	}
	bad := 0
	for i := range lines {
		if lines[i] != want[i] {
			bad++
			if bad <= 10 {
				t.Errorf("line %d changed:\n got  %s\n want %s", i+1, lines[i], want[i])
			}
		}
	}
	if bad > 0 {
		t.Fatalf("%d of %d lines changed", bad, len(lines))
	}
}
