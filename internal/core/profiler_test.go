package core_test

import (
	"reflect"
	"testing"

	"repro/internal/cfg"
	"repro/internal/core"
	"repro/internal/profile"
	"repro/internal/snapshot"
)

// TestProfilerReuseAcrossRuns: a persistent profiler (a worker shard) carries
// its learned graph and traces across sessions — the second run creates no
// nodes, rebinds accounting to its own counters, and still computes the
// right answer.
func TestProfilerReuseAcrossRuns(t *testing.T) {
	prof, err := core.NewProfiler(warmParams, core.DefaultConfig(), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if prof.Seeded() {
		t.Fatal("fresh profiler claims to be seeded")
	}
	if prof.Params() != warmParams {
		t.Fatalf("Params() = %+v, want %+v", prof.Params(), warmParams)
	}

	s1, out1 := buildSession(t, loopProgram, core.SessionOptions{Mode: core.ModeTrace, Profiler: prof})
	if err := s1.Run(); err != nil {
		t.Fatalf("first run: %v", err)
	}
	if s1.Counters.NodesCreated == 0 || s1.Counters.TracesBuilt == 0 {
		t.Fatalf("first run learned nothing: %+v", s1.Counters)
	}
	if !prof.Seeded() {
		t.Error("profiler not seeded after a learning run")
	}

	s2, out2 := buildSession(t, loopProgram, core.SessionOptions{Mode: core.ModeTrace, Profiler: prof})
	if err := s2.Run(); err != nil {
		t.Fatalf("second run: %v", err)
	}
	if out1.String() != out2.String() {
		t.Errorf("outputs differ: %q vs %q", out1.String(), out2.String())
	}
	if s2.Counters.NodesCreated != 0 {
		t.Errorf("warmed profiler created %d nodes on reuse, want 0", s2.Counters.NodesCreated)
	}
	if s2.Counters.TracesEntered == 0 {
		t.Error("warmed run never dispatched a learned trace")
	}
	// Accounting rebinds per run: the first session's counters are frozen.
	if s1.Counters.Instrs == 0 || s2.Counters.Instrs == 0 {
		t.Error("per-run instruction accounting lost across rebinds")
	}
}

// TestProfilerSnapshotSeedsOnlyUnseeded: a snapshot option seeds a profiler
// that holds no state yet; once the shard has learned, the same option is a
// no-op — shard state wins over stale disk state.
func TestProfilerSnapshotSeedsOnlyUnseeded(t *testing.T) {
	snap := coldSnapshot(t)
	prof, err := core.NewProfiler(warmParams, core.DefaultConfig(), nil, 0)
	if err != nil {
		t.Fatal(err)
	}

	s1, _ := buildSession(t, loopProgram, core.SessionOptions{
		Mode: core.ModeTrace, Profiler: prof, Snapshot: snap,
	})
	if s1.Counters.SnapshotsLoaded != 1 {
		t.Fatalf("fresh profiler: SnapshotsLoaded = %d, want 1", s1.Counters.SnapshotsLoaded)
	}
	if !prof.Seeded() {
		t.Fatal("snapshot seeding left the profiler unseeded")
	}

	s2, _ := buildSession(t, loopProgram, core.SessionOptions{
		Mode: core.ModeTrace, Profiler: prof, Snapshot: snap,
	})
	if s2.Counters.SnapshotsLoaded != 0 {
		t.Errorf("seeded profiler re-loaded a snapshot: SnapshotsLoaded = %d, want 0",
			s2.Counters.SnapshotsLoaded)
	}
}

// TestProfilerExportSnapshot: the profiler-level export matches the attached
// session's export and survives the wire codec.
func TestProfilerExportSnapshot(t *testing.T) {
	prof, err := core.NewProfiler(warmParams, core.DefaultConfig(), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	s, _ := buildSession(t, loopProgram, core.SessionOptions{Mode: core.ModeTrace, Profiler: prof})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}

	got := prof.ExportSnapshot("cafecafecafecafe", "loop")
	want := s.ExportSnapshot("cafecafecafecafe", "loop")
	if got == nil || want == nil {
		t.Fatal("nil export")
	}
	if !reflect.DeepEqual(got.Nodes, want.Nodes) || !reflect.DeepEqual(got.Traces, want.Traces) {
		t.Error("profiler export differs from the attached session's export")
	}
	if got.Params != warmParams || got.ProgramKey != "cafecafecafecafe" || got.Program != "loop" {
		t.Errorf("export identity wrong: %+v", got)
	}
	if _, err := snapshot.Decode(snapshot.Encode(got)); err != nil {
		t.Errorf("profiler export does not survive the codec: %v", err)
	}
}

// TestProfilerMergeEqualsSingleThreaded: two shards that each saw half the
// traffic merge into the same learned state a single profiler reaches after
// seeing all of it — the core merge-equivalence property, here at the
// Profiler level with real sessions driving the shards.
func TestProfilerMergeEqualsSingleThreaded(t *testing.T) {
	newProf := func() *core.Profiler {
		p, err := core.NewProfiler(warmParams, core.DefaultConfig(), nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	runOn := func(p *core.Profiler, runs int) {
		for i := 0; i < runs; i++ {
			s, _ := buildSession(t, loopProgram, core.SessionOptions{Mode: core.ModeTrace, Profiler: p})
			if err := s.Run(); err != nil {
				t.Fatal(err)
			}
		}
	}

	shardA, shardB := newProf(), newProf()
	runOn(shardA, 1)
	runOn(shardB, 1)

	merged := newProf()
	for _, src := range []*core.Profiler{shardA, shardB} {
		if n, err := merged.Absorb(src); err != nil || n == 0 {
			t.Fatalf("Absorb: %d nodes, err %v", n, err)
		}
	}
	merged.DeriveStates()
	// The merged cache's traces hang on the merged graph's nodes only: a
	// merge that carried a shard's trace pointer onto a node fails here.
	if err := merged.Cache.CheckInvariants(); err != nil {
		t.Fatalf("merged profiler: %v", err)
	}

	single := newProf()
	runOn(single, 2)

	got := merged.ExportSnapshot("k", "p")
	want := single.ExportSnapshot("k", "p")
	if len(got.Traces) == 0 {
		t.Fatal("merged profiler promoted no traces")
	}
	// Node sets and trace shapes must agree. Raw counters and the
	// unique<->strong distinction differ with decay timing (the flip is a
	// non-change even within one profiler), so the comparison is what the
	// trace cache consumes: the correlated bit and the predicted successor.
	if len(got.Nodes) != len(want.Nodes) {
		t.Errorf("merged nodes = %d, single-threaded = %d", len(got.Nodes), len(want.Nodes))
	}
	type class struct {
		correlated bool
		best       cfg.BlockID
	}
	states := func(ns []profile.NodeSnapshot) map[[2]cfg.BlockID]class {
		m := make(map[[2]cfg.BlockID]class, len(ns))
		for _, n := range ns {
			c := class{correlated: n.State.Correlated()}
			if c.correlated {
				c.best = n.Best // advisory on uncorrelated nodes
			}
			m[[2]cfg.BlockID{n.X, n.Y}] = c
		}
		return m
	}
	gs, ws := states(got.Nodes), states(want.Nodes)
	for k, v := range ws {
		if gs[k] != v {
			t.Errorf("node %v classifies as %+v merged, %+v single-threaded", k, gs[k], v)
		}
	}
	if len(got.Traces) != len(want.Traces) {
		t.Errorf("merged traces = %d, single-threaded = %d", len(got.Traces), len(want.Traces))
	}
}

// TestNewProfilerValidation: zero params mean defaults; invalid params fail.
func TestNewProfilerValidation(t *testing.T) {
	p, err := core.NewProfiler(profile.Params{}, core.Config{}, nil, 16)
	if err != nil {
		t.Fatalf("zero params rejected: %v", err)
	}
	if p.Params() != profile.DefaultParams() {
		t.Errorf("zero params = %+v, want defaults", p.Params())
	}
	if _, err := core.NewProfiler(profile.Params{StartDelay: -2, Threshold: 2, DecayInterval: 0},
		core.Config{}, nil, 0); err == nil {
		t.Error("invalid params accepted")
	}
}
