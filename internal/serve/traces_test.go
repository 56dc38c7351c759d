package serve

import (
	"context"
	"sync"
	"testing"

	"repro/internal/core"
)

// TestTraceInventoryTier2 hammers one program through a sharded service with
// tier-2 compilation enabled: outputs stay correct under -race, the
// per-program inventory reports promoted traces with a compiled-dispatch
// share, and the program-wide compiled store hash-conses lowered forms
// across shards (one Program per block sequence, never one per shard).
func TestTraceInventoryTier2(t *testing.T) {
	s := newTestService(t, Config{
		Workers:    4,
		QueueDepth: 32,
		EpochRuns:  4,
		TraceCache: core.Config{CompileTraces: true, TierUpDispatches: 4},
	})
	const n = 16
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

	inv := s.TraceInventory()
	if len(inv) != 1 {
		t.Fatalf("inventory covers %d programs, want 1", len(inv))
	}
	p := inv[0]
	if len(p.Traces) == 0 {
		t.Fatal("inventory holds no traces after 16 traced runs")
	}
	var promoted bool
	for _, r := range p.Traces {
		if r.Blocks < 2 || r.Shards < 1 || r.Entered < r.Completed {
			t.Errorf("malformed record: %+v", r)
		}
		if r.EstimatedGuards+r.ProvenGuards != r.Blocks-1 {
			t.Errorf("guard split %d proven + %d estimated != %d positions",
				r.ProvenGuards, r.EstimatedGuards, r.Blocks-1)
		}
		if r.Tier == 2 {
			promoted = true
			if r.CompiledEntered == 0 {
				t.Errorf("tier-2 trace never dispatched compiled: %+v", r)
			}
		}
	}
	if !promoted {
		t.Error("no trace promoted to tier 2 with TierUpDispatches=4")
	}

	// The shared store holds at most one compiled form per logical trace.
	comp, err := s.Registry().Source(KindMiniJava, epochLoopSource)
	if err != nil {
		t.Fatal(err)
	}
	s.epochs.mu.Lock()
	sets := s.epochs.sets[comp.Key]
	s.epochs.mu.Unlock()
	if len(sets) != 1 || sets[0].compiled == nil {
		t.Fatal("shard set has no shared compiled store with CompileTraces on")
	}
	if got := sets[0].compiled.Len(); got == 0 || got > len(p.Traces) {
		t.Errorf("compiled store holds %d programs for %d logical traces", got, len(p.Traces))
	}
	if stats := s.Stats(); stats.Global.TracesCompiled == 0 || stats.Global.CompiledDispatches == 0 {
		t.Errorf("global counters missed tier-2 work: compiled=%d dispatches=%d",
			stats.Global.TracesCompiled, stats.Global.CompiledDispatches)
	}
}
