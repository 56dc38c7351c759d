package harness

import (
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/profile"
)

// smallSuite runs only the fastest workload to keep the test quick.
func smallSuite() *Suite {
	s := NewSuite()
	s.Workloads = []string{"soot"}
	s.Repeats = 1
	return s
}

func TestRunProducesMetrics(t *testing.T) {
	s := smallSuite()
	r, err := s.Run("soot", core.ModeTrace, profile.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if r.Counters.Instrs == 0 || r.Metrics.CompletionRate == 0 {
		t.Errorf("empty result: %+v", r.Metrics)
	}
	if r.NumTraces == 0 {
		t.Error("no traces cached")
	}
}

func TestThresholdRunsAreCached(t *testing.T) {
	s := smallSuite()
	a, err := s.thresholdRun("soot", 0.97)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.thresholdRun("soot", 0.97)
	if err != nil {
		t.Fatal(err)
	}
	if a.Counters != b.Counters {
		t.Error("threshold run not cached")
	}
	if len(s.SortedKeys()) != 1 {
		t.Errorf("cached keys = %v", s.SortedKeys())
	}
}

func TestTablesRender(t *testing.T) {
	s := smallSuite()
	t1, err := s.TableI()
	if err != nil {
		t.Fatal(err)
	}
	if len(t1.Rows) != len(Thresholds) {
		t.Errorf("Table I rows = %d", len(t1.Rows))
	}
	out := t1.Format()
	if !strings.Contains(out, "Table I") || !strings.Contains(out, "soot") {
		t.Errorf("Table I format:\n%s", out)
	}
	t2, err := s.TableII()
	if err != nil {
		t.Fatal(err)
	}
	t3, err := s.TableIII()
	if err != nil {
		t.Fatal(err)
	}
	t4, err := s.TableIV()
	if err != nil {
		t.Fatal(err)
	}
	t5, err := s.TableV()
	if err != nil {
		t.Fatal(err)
	}
	if len(t5.Rows) != len(Delays) {
		t.Errorf("Table V rows = %d", len(t5.Rows))
	}
	for _, tb := range []Table{t2, t3, t4, t5} {
		if len(tb.Columns) != 3 { // label + soot + average
			t.Errorf("%s: columns = %v", tb.Title, tb.Columns)
		}
		for _, row := range tb.Rows {
			if len(row) != len(tb.Columns) {
				t.Errorf("%s: ragged row %v", tb.Title, row)
			}
		}
	}
}

func TestShapeInvariantsOnSoot(t *testing.T) {
	// The paper's qualitative claims, checked on one workload:
	// completion rate >= threshold (approximately), and the trace event
	// interval grows with the start-state delay.
	s := smallSuite()
	for _, th := range Thresholds {
		r, err := s.thresholdRun("soot", th)
		if err != nil {
			t.Fatal(err)
		}
		if r.Metrics.CompletionRate < th-0.05 {
			t.Errorf("threshold %.2f: completion %.3f fell far below", th, r.Metrics.CompletionRate)
		}
	}
	var prev float64
	for i, d := range Delays {
		r, err := s.delayRun("soot", d)
		if err != nil {
			t.Fatal(err)
		}
		v := r.Metrics.TraceEventInterval
		if math.IsInf(v, 1) {
			continue
		}
		if i > 0 && v < prev*0.8 {
			t.Errorf("delay %d: event interval %.0f dropped well below delay %d's %.0f",
				d, v, Delays[i-1], prev)
		}
		prev = v
	}
}

func TestOverheadMeasurement(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock measurement")
	}
	s := smallSuite()
	o, err := s.MeasureOverhead("soot")
	if err != nil {
		t.Fatal(err)
	}
	if o.Dispatches == 0 || o.TraceDisp == 0 {
		t.Errorf("no dispatches measured: %+v", o)
	}
	if o.TraceDisp >= o.Dispatches {
		t.Errorf("trace dispatch (%d) did not reduce dispatches (%d)", o.TraceDisp, o.Dispatches)
	}
	if o.PlainWall <= 0 || o.ProfileWall <= 0 {
		t.Error("wall clocks not measured")
	}
	if o.PlainSpread < 0 || o.ProfileSpread < 0 {
		t.Errorf("negative spread: plain %v, profile %v", o.PlainSpread, o.ProfileSpread)
	}
	t6 := s.TableVII([]Overhead{o})
	if len(t6.Rows) != 1 {
		t.Error("Table VII empty")
	}
}

func TestBaselinesTable(t *testing.T) {
	s := smallSuite()
	tb, err := s.Baselines()
	if err != nil {
		t.Fatal(err)
	}
	// Four selectors per workload.
	if len(tb.Rows) != 4 {
		t.Errorf("baseline rows = %d, want 4", len(tb.Rows))
	}
	sel := map[string]bool{}
	for _, row := range tb.Rows {
		sel[row[1]] = true
	}
	for _, want := range []string{"bcg", "dynamo-net", "replay", "whaley"} {
		if !sel[want] {
			t.Errorf("missing selector %s", want)
		}
	}
}

func TestUnknownWorkloadErrors(t *testing.T) {
	s := NewSuite()
	if _, err := s.Run("nope", core.ModeTrace, profile.DefaultParams()); err == nil {
		t.Error("unknown workload accepted")
	}
}

func TestTableFormatAlignment(t *testing.T) {
	tb := Table{
		Title:   "T",
		Columns: []string{"a", "bb"},
		Rows:    [][]string{{"xxx", "y"}},
	}
	out := tb.Format()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %d", len(lines))
	}
	if len(lines[1]) != len(lines[2]) {
		t.Errorf("misaligned:\n%s", out)
	}
}

func TestAblationTables(t *testing.T) {
	s := smallSuite()
	ad, err := s.AblationDecay()
	if err != nil {
		t.Fatal(err)
	}
	if len(ad.Rows) != len(DecayIntervals) {
		t.Errorf("decay ablation rows = %d, want %d", len(ad.Rows), len(DecayIntervals))
	}
	am, err := s.AblationMaxBlocks("soot")
	if err != nil {
		t.Fatal(err)
	}
	if len(am.Rows) != len(MaxBlocksSweep) {
		t.Errorf("max-blocks ablation rows = %d, want %d", len(am.Rows), len(MaxBlocksSweep))
	}
	for _, row := range am.Rows {
		if len(row) != len(am.Columns) {
			t.Errorf("ragged ablation row: %v", row)
		}
	}
}

func TestStabilityTable(t *testing.T) {
	s := smallSuite()
	tb, err := s.Stability()
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 2 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	if tb.Rows[0][0] != "bcg" || tb.Rows[1][0] != "dynamo-net" {
		t.Errorf("selector rows wrong: %v", tb.Rows)
	}
}
