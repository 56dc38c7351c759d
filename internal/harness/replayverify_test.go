package harness

import (
	"context"
	"path/filepath"
	"testing"

	"repro/internal/replay"
	"repro/internal/serve"
)

// TestCommittedFixtureReplaysDeterministically is the acceptance check:
// replaying the committed mixed-tenant storm fixture twice yields identical
// per-program dispatch and trace-built counters.
func TestCommittedFixtureReplaysDeterministically(t *testing.T) {
	if testing.Short() {
		t.Skip("replays a full storm twice")
	}
	path := filepath.Join("..", "replay", "testdata", "storm-mixed"+replay.FileExt)
	l, err := replay.Load(path)
	if err != nil {
		t.Fatalf("loading committed fixture: %v", err)
	}
	rep, err := VerifyReplayDeterminism(context.Background(), l, 2, serve.Config{Workers: 4})
	if err != nil {
		t.Fatalf("VerifyReplayDeterminism: %v", err)
	}
	if !rep.Deterministic {
		t.Fatalf("fixture replay diverged: %s", rep.Divergence)
	}
	if rep.Programs < 5 {
		t.Fatalf("fixture covers %d programs, want mixed-tenant", rep.Programs)
	}
	var traced bool
	for name, c := range rep.PerProgram {
		if c.Runs == 0 || c.Instrs == 0 {
			t.Errorf("program %q replayed with no work: %+v", name, c)
		}
		if c.TracesBuilt > 0 && c.TraceDispatches > 0 {
			traced = true
		}
	}
	if !traced {
		t.Error("no program built and dispatched traces; the storm exercises nothing")
	}
}

func TestVerifyReplayDeterminismRejectsEmpty(t *testing.T) {
	if _, err := VerifyReplayDeterminism(context.Background(), &replay.Log{}, 2, serve.Config{}); err == nil {
		t.Fatal("empty log accepted")
	}
}
