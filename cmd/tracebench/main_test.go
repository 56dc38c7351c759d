package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/harness"
)

// smokeSuite returns a suite scaled down far enough that a full measurement
// pass completes in CI-test time: one repetition, tight instruction budget.
func smokeSuite() *harness.Suite {
	s := harness.NewSuite()
	s.Repeats = 1
	s.MaxSteps = 60_000
	return s
}

// TestTable6Smoke exercises the original CLI path the README documents
// (tracebench -table 6) on a scaled-down budget.
func TestTable6Smoke(t *testing.T) {
	var buf strings.Builder
	if err := run(smokeSuite(), &buf, 6, false, false, false, false, false, false); err != nil {
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

// TestOptimizabilitySmoke exercises tracebench -optimizability -maxsteps …:
// the table is built from trace.Compile's counters, one row per workload,
// and no row may show more emitted ops than instructions consumed.
func TestOptimizabilitySmoke(t *testing.T) {
	var buf strings.Builder
	if err := run(smokeSuite(), &buf, 0, false, false, true, false, false, false); err != nil {
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

// TestBenchJSONSmoke runs the -bench-json path end to end on a scaled-down
// workload set and validates the emitted report against the schema.
func TestBenchJSONSmoke(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	var buf strings.Builder
	if err := runBenchJSON(smokeSuite(), &buf, path); err != nil {
		t.Fatalf("runBenchJSON: %v", err)
	}
	if !strings.Contains(buf.String(), "wrote "+path) {
		t.Errorf("missing confirmation line in output:\n%s", buf.String())
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading report: %v", err)
	}
	var rep harness.BenchReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	if rep.Schema != harness.BenchSchema {
		t.Errorf("schema = %q, want %q", rep.Schema, harness.BenchSchema)
	}
	if rep.GoVersion == "" || rep.GOOS == "" || rep.GOARCH == "" {
		t.Errorf("missing environment fields: %+v", rep)
	}
	if rep.HookFastPathAllocs != 0 {
		t.Errorf("HookFastPathAllocs = %v, want 0 (dense-index BCG fast path must not allocate)", rep.HookFastPathAllocs)
	}

	want := harness.NewSuite().Workloads
	if len(rep.Workloads) != len(want) {
		t.Fatalf("report has %d workloads, want %d: %+v", len(rep.Workloads), len(want), rep.Workloads)
	}
	seen := map[string]bool{}
	for _, w := range rep.Workloads {
		seen[w.Name] = true
		if w.Dispatches <= 0 {
			t.Errorf("%s: dispatches = %d, want > 0", w.Name, w.Dispatches)
		}
		for field, v := range map[string]float64{
			"plain_ns_per_dispatch":    w.PlainNsPerDispatch,
			"profiled_ns_per_dispatch": w.ProfiledNsPerDispatch,
			"overhead_ns_per_dispatch": w.OverheadNsPerDispatch,
			"overhead_pct":             w.OverheadPct,
			"allocs_per_dispatch":      w.AllocsPerDispatch,
		} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s: %s = %v, want finite", w.Name, field, v)
			}
		}
		if w.PlainNsPerDispatch <= 0 || w.ProfiledNsPerDispatch <= 0 {
			t.Errorf("%s: non-positive ns/dispatch (plain %v, profiled %v)", w.Name, w.PlainNsPerDispatch, w.ProfiledNsPerDispatch)
		}
	}
	for _, name := range want {
		if !seen[name] {
			t.Errorf("report missing workload %q", name)
		}
	}
}

// TestBenchGate checks the gate logic against synthetic reports: identical
// reports pass, a large overhead regression fails, and a pre-measured -in
// report is honoured without re-measuring.
func TestBenchGate(t *testing.T) {
	base := harness.BenchReport{
		Schema:  harness.BenchSchema,
		Repeats: 3,
		Workloads: []harness.BenchWorkload{
			{Name: "compress", Dispatches: 1e6, PlainNsPerDispatch: 100, ProfiledNsPerDispatch: 102, OverheadNsPerDispatch: 2, OverheadPct: 2},
			{Name: "scimark", Dispatches: 1e6, PlainNsPerDispatch: 100, ProfiledNsPerDispatch: 105, OverheadNsPerDispatch: 5, OverheadPct: 5},
		},
	}
	dir := t.TempDir()
	writeReport := func(name string, rep harness.BenchReport) string {
		data, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	basePath := writeReport("base.json", base)

	var buf strings.Builder
	if err := runBenchGate(nil, &buf, basePath, writeReport("same.json", base), harness.DefaultGateOptions()); err != nil {
		t.Errorf("identical reports should pass the gate: %v\n%s", err, buf.String())
	}

	regressed := base
	regressed.Workloads = append([]harness.BenchWorkload(nil), base.Workloads...)
	// 5% -> 25%: beyond the per-workload floor (5+15pp) and the suite-mean
	// gate (base mean 3.5% -> limit 6.85%, cur mean 13.5%).
	regressed.Workloads[1].OverheadPct = 25
	regressed.Workloads[1].OverheadNsPerDispatch = 25
	buf.Reset()
	err := runBenchGate(nil, &buf, basePath, writeReport("bad.json", regressed), harness.DefaultGateOptions())
	if err == nil {
		t.Fatalf("regressed report should fail the gate; output:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), "scimark") {
		t.Errorf("violation output should name the regressed workload:\n%s", buf.String())
	}
}
