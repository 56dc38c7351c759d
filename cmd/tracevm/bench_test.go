package main

import (
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
