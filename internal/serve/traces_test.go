package serve

import (
	"context"
	"sync"
	"testing"

	"repro/internal/core"
)

// TestTraceInventoryAcrossShards hammers one program through a sharded
// service: outputs stay correct under -race, and the per-program inventory
// folds the shards' copies of a block sequence into one well-formed record
// whose dispatch counts are the shards' sum.
func TestTraceInventoryAcrossShards(t *testing.T) {
	s := newTestService(t, Config{Workers: 4, QueueDepth: 32})
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
	keys := make(map[string]bool)
	var entered int64
	for _, r := range p.Traces {
		if r.Blocks < 2 || r.Shards < 1 || r.Entered < r.Completed {
			t.Errorf("malformed record: %+v", r)
		}
		if r.EstimatedGuards+r.ProvenGuards != r.Blocks-1 {
			t.Errorf("guard split %d proven + %d estimated != %d positions",
				r.ProvenGuards, r.EstimatedGuards, r.Blocks-1)
		}
		if keys[r.Key] {
			t.Errorf("block sequence %s reported twice", r.Key)
		}
		keys[r.Key] = true
		entered += r.Entered
	}
	if entered == 0 {
		t.Error("no inventoried trace was ever entered")
	}
}
