package main

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/harness"
)

// smokeFlags scale the suite down far enough that a full measurement pass
// completes in CI-test time: one repetition, tight instruction budget.
var smokeFlags = []string{"-repeats", "1", "-maxsteps", "60000"}

// TestTable6Smoke exercises the CLI path the README documents
// (tracevm bench -table 6) on a scaled-down budget.
func TestTable6Smoke(t *testing.T) {
	var buf strings.Builder
	if err := benchCmd(&buf, append(smokeFlags, "-table", "6")); err != nil {
		t.Fatalf("run(-table 6): %v", err)
	}
	out := buf.String()
	if !strings.Contains(out, "dispatches (M)") {
		t.Errorf("table VI output missing dispatch column:\n%s", out)
	}
	for _, w := range harness.NewSuite().Workloads {
		if !strings.Contains(out, w) {
			t.Errorf("table VI output missing workload %q:\n%s", w, out)
		}
	}
}

// TestOptimizabilitySmoke exercises tracevm bench -optimizability -maxsteps …:
// the table is built from trace.Compile's counters, one row per workload,
// and no row may show more emitted ops than instructions consumed.
func TestOptimizabilitySmoke(t *testing.T) {
	var buf strings.Builder
	if err := benchCmd(&buf, append(smokeFlags, "-optimizability")); err != nil {
		t.Fatalf("run(-optimizability): %v", err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	workloads := harness.NewSuite().Workloads
	if len(lines) != 2+len(workloads) {
		t.Fatalf("want title, header and %d rows:\n%s", len(workloads), out)
	}
	const wantHeader = "benchmark traces compiled instrs ops folded forwarded guards dropped branches decided weighted removed"
	if got := strings.Join(strings.Fields(lines[1]), " "); got != wantHeader {
		t.Errorf("header = %q, want %q", got, wantHeader)
	}
	for i, w := range workloads {
		row := strings.Fields(lines[2+i])
		if len(row) != 10 || row[0] != w {
			t.Errorf("row %d = %v, want 10 cells for %s", i, row, w)
			continue
		}
		instrs, err1 := strconv.Atoi(row[3])
		ops, err2 := strconv.Atoi(row[4])
		if err1 != nil || err2 != nil || ops > instrs {
			t.Errorf("%s: instrs %q, ops %q: want numbers with ops <= instrs", w, row[3], row[4])
		}
	}
}
