package serve

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/cfg"
	"repro/internal/core"
	"repro/internal/profile"
	"repro/internal/snapshot"
	"repro/internal/vm"
)

// epochLoopSource is a deterministic 2000-iteration loop with a known
// output — enough dispatches for shards to converge and build traces.
const epochLoopSource = `class Main { static void main() { int i = 0; int s = 0; while (i < 2000) { s = s + i; i = i + 1; } Sys.printlnInt(s); } }`

const epochLoopOutput = "1999000\n"

// TestEpochShardsDisjointPrograms runs several distinct programs concurrently
// through a sharded service: every worker learns each program in its private
// shard, outputs stay correct, and the coordinator tracks one shard set per
// program, whose merged export holds learned state. Run under -race this
// proves shard learning never crosses a goroutine boundary outside the
// coordinator's locks.
func TestEpochShardsDisjointPrograms(t *testing.T) {
	const programs = 4
	const perProgram = 6
	src := func(p int) string {
		return fmt.Sprintf(
			`class Main { static void main() { int i = 0; int s = 0; while (i < 1000) { s = s + i; i = i + 1; } Sys.printlnInt(s + %d); } }`, p)
	}
	want := func(p int) string { return fmt.Sprintf("%d\n", 499500+p) }

	s := newTestService(t, Config{Workers: 4, QueueDepth: programs * perProgram})
	var wg sync.WaitGroup
	for p := 0; p < programs; p++ {
		for i := 0; i < perProgram; i++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				resp, err := s.Do(context.Background(), Request{Source: src(p), Mode: core.ModeTrace})
				if err != nil {
					t.Errorf("program %d: %v", p, err)
					return
				}
				if resp.Output != want(p) {
					t.Errorf("program %d output = %q, want %q", p, resp.Output, want(p))
				}
			}(p)
		}
	}
	wg.Wait()

	snap := s.Stats()
	if snap.ShardPrograms != programs {
		t.Errorf("ShardPrograms = %d, want %d", snap.ShardPrograms, programs)
	}
	if snap.LiveShards < programs {
		t.Errorf("LiveShards = %d, want >= %d (each program learned on at least one shard)",
			snap.LiveShards, programs)
	}
	for p := 0; p < programs; p++ {
		comp, err := s.Registry().Source(KindMiniJava, src(p))
		if err != nil {
			t.Fatal(err)
		}
		if exp := s.epochs.exportForCommit(comp.Key, true); exp == nil || len(exp.Nodes) == 0 {
			t.Errorf("program %d: merged export holds no learned state", p)
		}
	}
	snap = s.Stats()
	if snap.EpochMerges < programs {
		t.Errorf("EpochMerges = %d after one export per program, want >= %d", snap.EpochMerges, programs)
	}
	if snap.ShardsMerged < snap.EpochMerges {
		t.Errorf("ShardsMerged = %d < EpochMerges = %d; merges absorbed nothing",
			snap.ShardsMerged, snap.EpochMerges)
	}
}

// TestEpochShardsOverlappingProgram hammers one program from many clients at
// once — the shards overlap on the same learned structure — and checks the
// merged export the snapshot writer would commit: globally derived state with
// nodes and promoted traces, surviving the wire codec.
func TestEpochShardsOverlappingProgram(t *testing.T) {
	s := newTestService(t, Config{Workers: 4, QueueDepth: 32})
	const n = 24
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := s.Do(context.Background(), Request{Source: epochLoopSource, Mode: core.ModeTrace})
			if err != nil {
				t.Error(err)
				return
			}
			if resp.Output != epochLoopOutput {
				t.Errorf("output = %q, want %q", resp.Output, epochLoopOutput)
			}
		}()
	}
	wg.Wait()

	snap := s.Stats()
	if snap.ShardPrograms != 1 {
		t.Errorf("ShardPrograms = %d, want 1", snap.ShardPrograms)
	}

	comp, err := s.Registry().Source(KindMiniJava, epochLoopSource)
	if err != nil {
		t.Fatal(err)
	}
	exported := s.epochs.exportForCommit(comp.Key, true)
	if exported == nil {
		t.Fatal("exportForCommit returned nothing for a learned program")
	}
	if exported.ProgramKey != comp.Key {
		t.Errorf("export key = %q, want %q", exported.ProgramKey, comp.Key)
	}
	if len(exported.Nodes) == 0 || len(exported.Traces) == 0 {
		t.Fatalf("merged export learned nothing: %d nodes, %d traces",
			len(exported.Nodes), len(exported.Traces))
	}
	if _, err := snapshot.Decode(snapshot.Encode(exported)); err != nil {
		t.Errorf("merged export does not survive the codec: %v", err)
	}
	// Unknown programs yield nil, not a phantom set.
	if got := s.epochs.exportForCommit("no-such-key", true); got != nil {
		t.Errorf("export for unknown key = %+v, want nil", got)
	}
}

// TestEpochMergeEqualsSingleWorkerState is the merge-equivalence property at
// the service level: the merged view of a 4-worker service that split the
// traffic across shards classifies branches identically to a 1-worker
// service that saw every run on one shard, and promotes the same traces.
// (Raw counters differ with per-shard decay timing; the unique<->strong flip
// is a non-change, so the comparison is the correlated bit plus the
// predicted successor — exactly what the trace cache consumes.)
//
// The profile leg sends a concurrent burst of ModeProfile requests, which
// the mode controller never deploys, so both services learn from every
// block dispatch of every run. The trace leg sends the default API mode:
// armRuns serial trace runs move each service's program to deployment mode
// at the same run, and the views are compared there, over the same
// measured runs. A concurrent burst then checks that every shard runs
// deployed. The views are not compared after it: a deployed run observes
// only the dispatches outside traces, so the loop's exit accrues while its
// in-trace edge stands still, and the loop node's ratio falls faster on one
// shard than on a merged view that sums four shards' counters.
func TestEpochMergeEqualsSingleWorkerState(t *testing.T) {
	for _, mode := range []core.Mode{core.ModeProfile, core.ModeTrace} {
		t.Run(mode.String(), func(t *testing.T) { testMergeEqualsSingleWorker(t, mode) })
	}
}

func testMergeEqualsSingleWorker(t *testing.T, mode core.Mode) {
	learned := func(workers int) *snapshot.Snapshot {
		s := newTestService(t, Config{Workers: workers, QueueDepth: 32})
		req := Request{Source: epochLoopSource, Mode: mode}
		burst := func(want core.Mode) {
			const n = 16
			var wg sync.WaitGroup
			for i := 0; i < n; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					resp, err := s.Do(context.Background(), req)
					if err != nil {
						t.Error(err)
					} else if resp.Mode != want || resp.Output != epochLoopOutput {
						t.Errorf("%d workers: burst run ran as %v with output %q, want %v", workers, resp.Mode, resp.Output, want)
					}
				}()
			}
			wg.Wait()
		}
		if mode == core.ModeProfile {
			burst(core.ModeProfile)
			return mergedView(t, s, workers)
		}
		for i := 0; i < armRuns; i++ {
			if resp := mustDo(t, s, req); resp.Mode != core.ModeTrace {
				t.Fatalf("%d workers: warm-up run %d ran as %v, want trace", workers, i, resp.Mode)
			}
		}
		if arm, _ := programMode(s); arm != "trace-deploy" {
			t.Fatalf("%d workers: arm after %d calm trace runs = %q, want trace-deploy", workers, armRuns, arm)
		}
		view := mergedView(t, s, workers)
		burst(core.ModeTraceDeploy)
		return view
	}
	multi := learned(4)
	single := learned(1)

	if len(multi.Traces) != len(single.Traces) {
		t.Errorf("merged traces = %d, single-worker = %d", len(multi.Traces), len(single.Traces))
	}
	if len(multi.Nodes) != len(single.Nodes) {
		t.Errorf("merged nodes = %d, single-worker = %d", len(multi.Nodes), len(single.Nodes))
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
				c.best = n.Best
			}
			m[[2]cfg.BlockID{n.X, n.Y}] = c
		}
		return m
	}
	ms, ss := states(multi.Nodes), states(single.Nodes)
	for k, v := range ss {
		if ms[k] != v {
			t.Errorf("node %v classifies as %+v merged, %+v single-worker", k, ms[k], v)
		}
	}
}

// mergedView returns the epoch loop's merged view in s, through the codec.
func mergedView(t *testing.T, s *Service, workers int) *snapshot.Snapshot {
	t.Helper()
	comp, err := s.Registry().Source(KindMiniJava, epochLoopSource)
	if err != nil {
		t.Fatal(err)
	}
	snap := s.epochs.exportForCommit(comp.Key, true)
	if snap == nil {
		t.Fatalf("%d workers: no merged state", workers)
	}
	decoded, err := snapshot.Decode(snapshot.Encode(snap))
	if err != nil {
		t.Fatalf("%d workers: codec: %v", workers, err)
	}
	return decoded
}

// TestEpochParamsKeyedSets: a request whose profiler parameters differ from
// the default ones gets a shard set of its own and keeps reusing it, while
// the program's default set keeps its parameters — parameters never mix
// within a set.
func TestEpochParamsKeyedSets(t *testing.T) {
	s := newTestService(t, Config{Workers: 1, QueueDepth: 8})
	base := Request{Source: epochLoopSource, Mode: core.ModeTrace}
	if _, err := s.Do(context.Background(), base); err != nil {
		t.Fatal(err)
	}
	odd := base
	odd.Threshold, odd.StartDelay, odd.DecayInterval = 0.5, 2, 32
	for run := 1; run <= 2; run++ {
		resp, err := s.Do(context.Background(), odd)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Output != epochLoopOutput {
			t.Errorf("override run %d: output = %q, want %q", run, resp.Output, epochLoopOutput)
		}
		// The first override run learns from scratch in its own set; the
		// second reuses that set's shard and relearns nothing.
		if learned := resp.Counters.NodesCreated > 0; learned != (run == 1) {
			t.Errorf("override run %d created %d nodes", run, resp.Counters.NodesCreated)
		}
	}
	if snap := s.Stats(); snap.LiveShards != 2 || snap.ShardPrograms != 1 {
		t.Errorf("LiveShards = %d, ShardPrograms = %d, want 2 and 1 (one program, two sets)",
			snap.LiveShards, snap.ShardPrograms)
	}
	comp, err := s.Registry().Source(KindMiniJava, epochLoopSource)
	if err != nil {
		t.Fatal(err)
	}
	s.epochs.mu.Lock()
	sets := s.epochs.sets[comp.Key]
	s.epochs.mu.Unlock()
	want := profile.Params{Threshold: odd.Threshold, StartDelay: odd.StartDelay, DecayInterval: odd.DecayInterval}
	if len(sets) != 2 || sets[0].params != profile.DefaultParams() || sets[1].params != want {
		t.Fatalf("sets = %d; want the default set first, then the override set", len(sets))
	}
}

// TestHookPanicDiscardsShard: a dispatch hook that panics mid-run may leave
// the shard's graph half-updated. vm.Machine.Run reports that panic as a
// TrapBadProgram, and serve must still treat it as a fault: the shard is
// discarded (never merged, so never committed), the panic counts toward
// quarantine, and the worker's next run rebuilds the shard, which the next
// export merges.
func TestHookPanicDiscardsShard(t *testing.T) {
	var armed atomic.Bool
	armed.Store(true)
	s := newTestService(t, Config{Workers: 1, Injector: InjectorFuncs{
		Wrap: func(h vm.DispatchHook) vm.DispatchHook {
			if !armed.Swap(false) {
				return h
			}
			var n int
			return vm.HookFunc(func(from, to cfg.BlockID) {
				if n++; n == 100 {
					panic("hook failure")
				}
				h.OnDispatch(from, to)
			})
		},
	}})
	req := Request{Source: epochLoopSource, Mode: core.ModeTrace}
	_, err := s.Do(context.Background(), req)
	if tr, ok := vm.AsTrap(err); !ok || tr.Kind != vm.TrapBadProgram {
		t.Fatalf("err = %v, want the hook panic as a bad-program trap", err)
	}
	snap := s.Stats()
	if snap.Panics != 1 || snap.Failed != 1 || snap.LiveShards != 0 || snap.EpochMerges != 0 {
		t.Fatalf("after the hook panic: panics=%d failed=%d liveShards=%d merges=%d, want 1/1/0/0",
			snap.Panics, snap.Failed, snap.LiveShards, snap.EpochMerges)
	}
	resp, err := s.Do(context.Background(), req)
	if err != nil {
		t.Fatalf("run after the hook panic: %v", err)
	}
	if resp.Output != epochLoopOutput {
		t.Errorf("run after the hook panic: output %q, want %q", resp.Output, epochLoopOutput)
	}
	if snap := s.Stats(); snap.LiveShards != 1 || snap.EpochMerges != 0 {
		t.Errorf("after a clean run: liveShards=%d merges=%d, want 1/0 (shard rebuilt, nothing read it)",
			snap.LiveShards, snap.EpochMerges)
	}
	if s.epochs.exportForCommit(resp.Key, false) == nil {
		t.Fatal("export after a clean run merged nothing")
	}
	if snap := s.Stats(); snap.EpochMerges != 1 || snap.ShardsMerged != 1 {
		t.Errorf("after an export: merges=%d shardsMerged=%d, want 1/1 (the rebuilt shard merged)",
			snap.EpochMerges, snap.ShardsMerged)
	}
}

// TestFreshShardSeedsFromReleasedRuns: a release never merges; the merged
// view's reader does. Worker 0's run marks the set dirty without a merge, a
// second run on its live shard reads nothing and still merges nothing, and
// worker 1's fresh shard pulls exactly one merge and warm-starts from
// worker 0's learning.
func TestFreshShardSeedsFromReleasedRuns(t *testing.T) {
	s := newTestService(t, Config{Workers: 2})
	comp, err := s.Registry().Source(KindMiniJava, epochLoopSource)
	if err != nil {
		t.Fatal(err)
	}
	ec, params := s.epochs, profile.DefaultParams()
	run := func(w int) *core.Session {
		t.Helper()
		set := ec.setFor(comp, params)
		sh := set.shards[w]
		sh.mu.Lock()
		prof, seed, err := ec.profiler(sh, set)
		if err != nil {
			t.Fatal(err)
		}
		sess, err := core.NewSession(comp.Prog, comp.CFG, core.SessionOptions{Mode: core.ModeTrace, Profiler: prof, Snapshot: seed})
		if err != nil {
			t.Fatal(err)
		}
		if err := sess.Run(); err != nil {
			t.Fatal(err)
		}
		ec.release(sh, set, core.ModeTrace, sess.Counters)
		return sess
	}

	for i := 0; i < 2; i++ {
		run(0)
		if got := ec.merges.Load(); got != 0 {
			t.Fatalf("worker 0 run %d: %d merges, want 0 (nothing read the merged view)", i, got)
		}
	}
	warm := run(1)
	if got := ec.merges.Load(); got != 1 {
		t.Errorf("worker 1's fresh shard pulled %d merges, want 1", got)
	}
	if warm.Counters.NodesSeededFromSnapshot == 0 {
		t.Error("worker 1's fresh shard did not seed from worker 0's released runs")
	}
}
