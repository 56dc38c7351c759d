package faultinject

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/snapshot"
)

// saveArtifactsOnFailure registers a cleanup that, when the test fails and
// TRACEVM_ARTIFACT_DIR is set (CI exports it so failure artifacts can be
// uploaded), dumps the service's event-ring tail — the last few hundred
// observability events before the failure — as JSON into that directory.
// Without the env var (local runs) it is a no-op.
func saveArtifactsOnFailure(t *testing.T, s *serve.Service) {
	t.Helper()
	t.Cleanup(func() {
		if !t.Failed() {
			return
		}
		dir := os.Getenv("TRACEVM_ARTIFACT_DIR")
		if dir == "" {
			return
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Logf("artifact dir: %v", err)
			return
		}
		events := s.Events(512, obs.EvNone, "")
		name := strings.ReplaceAll(t.Name(), "/", "_") + "-events.json"
		path := filepath.Join(dir, name)
		data, err := json.MarshalIndent(struct {
			Test   string      `json:"test"`
			Stats  any         `json:"stats"`
			Events []obs.Event `json:"events"`
		}{t.Name(), s.Stats(), events}, "", "  ")
		if err != nil {
			t.Logf("artifact marshal: %v", err)
			return
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Logf("artifact write: %v", err)
			return
		}
		t.Logf("wrote failure artifact %s (%d events)", path, len(events))
	})
}

// TestBreakerTripMidEpochNoStrandedDeltas: a storm demotion (the mode
// controller's move to its plain arm, which replaced the churn breaker's
// trip) leaves the program's tracing-phase learning in unmerged shards. Every snapshot-writer trigger but drain is disabled, so
// the drain commit must merge those shards and carry the learning to disk.
func TestBreakerTripMidEpochNoStrandedDeltas(t *testing.T) {
	storm := &Storm{Seed: 99}
	storm.SetEnabled(true)
	dir := t.TempDir()
	s := newService(t, serve.Config{
		Workers:          2,
		TraceCache:       core.Config{MaxTraces: 4, MaxCachedBlocks: 48},
		Injector:         &Faults{Storm: storm},
		EventTrace:       512,
		SnapshotDir:      dir,       // persistence on...
		SnapshotInterval: time.Hour, // ...but no periodic commit
		SnapshotNet:      1 << 40,   // ...and no net-threshold commit
	})
	saveArtifactsOnFailure(t, s)

	req := serve.Request{Source: loopSource, Mode: core.ModeTrace}
	tripped := false
	for i := 0; i < 10 && !tripped; i++ {
		resp, err := s.Do(context.Background(), req)
		if err != nil {
			t.Fatalf("storm run %d: %v", i, err)
		}
		if resp.Output != loopOutput {
			t.Fatalf("storm run %d output = %q, want %q", i, resp.Output, loopOutput)
		}
		tripped = s.Stats().ModeMoves.Plain > 0
	}
	if !tripped {
		t.Fatal("the signal storm never demoted the program")
	}

	// Drain. The writer's final flush pulls the merged view through the
	// coordinator and commits it — the learning survives to disk.
	s.Close()
	files, err := filepath.Glob(filepath.Join(dir, "*.tsnap"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no snapshot committed after drain (err=%v); learning was stranded", err)
	}
	data, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := snapshot.Decode(data)
	if err != nil {
		t.Fatalf("committed snapshot does not decode: %v", err)
	}
	if len(decoded.Nodes) == 0 {
		t.Error("committed snapshot holds no learned nodes")
	}
	if decoded.Program == "" {
		t.Error("committed snapshot lost its program identity")
	}
}
