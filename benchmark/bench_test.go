package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// fastBuiltins are the two quickest built-in programs; the smoke test runs
// the steady rows on them so it stays in seconds.
var fastBuiltins = []string{"raytrace", "soot"}

// smokeSeconds scales every list to about 1/50 of a real run.
const smokeSeconds = 0.2

var testBench *bench

func TestMain(m *testing.M) {
	b, err := newBench("..", 2, fastBuiltins)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	b.setups = 1
	testBench = b
	code := m.Run()
	b.close()
	os.Exit(code)
}

func bodies(reqs []request) []byte {
	var buf bytes.Buffer
	for i := range reqs {
		buf.Write(reqs[i].Body)
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

func TestSameSeedSameLists(t *testing.T) {
	for _, s := range specs {
		a := generate(s, 7, smokeSeconds, fastBuiltins)
		b := generate(s, 7, smokeSeconds, fastBuiltins)
		if !bytes.Equal(bodies(a.Warmup), bodies(b.Warmup)) || !bytes.Equal(bodies(a.Timed), bodies(b.Timed)) {
			t.Errorf("%s: seed 7 generated two different lists", s.name)
		}
		c := generate(s, 8, smokeSeconds, fastBuiltins)
		if bytes.Equal(bodies(a.Timed), bodies(c.Timed)) {
			t.Errorf("%s: seeds 7 and 8 generated the same timed list", s.name)
		}
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestManifestNamesWorkloadsAndBounds(t *testing.T) {
	man, err := readManifest("..")
	if err != nil {
		t.Fatal(err)
	}
	if len(man.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the driver has %d", len(man.Workloads), len(specs))
	}
	for i, w := range man.Workloads {
		if w.Name != specs[i].name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the driver %q", i, w.Name, specs[i].name)
		}
	}
	seen := map[string]bool{}
	hasSetup := false
	for _, m := range append(append([]manifestMetric{}, man.EndToEnd...), man.PerLayer...) {
		if !nameRE.MatchString(m.Name) {
			t.Errorf("metric name %q is outside [A-Za-z0-9_.-]", m.Name)
		}
		if seen[m.Name] {
			t.Errorf("metric name %q is used twice", m.Name)
		}
		seen[m.Name] = true
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better = %q", m.Name, m.Better)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	for _, m := range man.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
}

// checkMetrics asserts res reports exactly the metrics want lists, with
// their units.
func checkMetrics(t *testing.T, res result, want []manifestMetric) {
	t.Helper()
	if res.Failed != 0 || !res.Correct || res.Attempted < 1 {
		t.Errorf("attempted %d, failed %d, correct %v", res.Attempted, res.Failed, res.Correct)
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("%d metrics reported, BENCHMARK.json lists %d", len(res.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := res.Metrics[m.Name]
		if !ok {
			t.Errorf("metric %s not reported", m.Name)
		} else if got.Unit != m.Unit {
			t.Errorf("metric %s reported in %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
		}
	}
}

func TestSmoke(t *testing.T) {
	man, err := readManifest("..")
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range specs {
		t.Run(s.name, func(t *testing.T) {
			res, err := testBench.runE2E(s, 1, smokeSeconds)
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, res, man.EndToEnd)
			for name, m := range res.Metrics {
				if m.Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, want > 0", name, m.Value)
				}
			}

			res, err = testBench.runTraced(s, 1, smokeSeconds)
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, res, man.PerLayer)
			if u, ok := res.Metrics["tracing.unattributed_share"]; !ok || u.Value < 0 || u.Value > 0.10 {
				t.Errorf("tracing.unattributed_share = %+v, want reported and within [0, 0.10]", u)
			}
			checkSpanTree(t, filepath.Join(testBench.outDir, "spans-"+s.name+".json"))
		})
	}
}

// checkSpanTree asserts the spans of every request id form a tree whose
// children lie inside their parents.
func checkSpanTree(t *testing.T, path string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var file struct{ Spans []span }
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatal(err)
	}
	roots := map[int]int{}
	for i, s := range file.Spans {
		if s.End < s.Start {
			t.Fatalf("span %d (%s) ends before it starts", i, s.Name)
		}
		if s.Parent < 0 {
			if s.Name != "request" && s.Name != "probe" {
				t.Fatalf("span %d (%s) is a root", i, s.Name)
			}
			roots[s.RequestID]++
			continue
		}
		if s.Parent >= len(file.Spans) || s.Parent == i {
			t.Fatalf("span %d (%s) has parent %d", i, s.Name, s.Parent)
		}
		p := file.Spans[s.Parent]
		if p.RequestID != s.RequestID {
			t.Fatalf("span %d (%s) of request %d hangs under request %d", i, s.Name, s.RequestID, p.RequestID)
		}
		if s.Start < p.Start || s.End > p.End {
			t.Fatalf("span %d (%s) [%d,%d] leaves its parent %s [%d,%d]", i, s.Name, s.Start, s.End, p.Name, p.Start, p.End)
		}
	}
	if len(roots) == 0 {
		t.Fatal("no spans recorded")
	}
	for id, n := range roots {
		if n != 1 {
			t.Fatalf("request %d has %d root spans", id, n)
		}
	}
}
