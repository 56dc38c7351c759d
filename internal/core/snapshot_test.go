package core_test

import (
	"reflect"
	"testing"

	"repro/internal/cfg"
	"repro/internal/core"
	"repro/internal/jasm"
	"repro/internal/obs"
	"repro/internal/profile"
	"repro/internal/snapshot"
)

// warmParams is the configuration shared by the snapshot tests; seeding
// requires the consuming session to run under the recording session's
// parameters.
var warmParams = profile.Params{Threshold: 0.97, StartDelay: 4, DecayInterval: 64}

// coldSnapshot runs loopProgram cold and exports its learned state through
// the wire codec, so the tests cover export → encode → decode → seed, not
// just the in-memory structs.
func coldSnapshot(t *testing.T) *snapshot.Snapshot {
	t.Helper()
	s, _ := buildSession(t, loopProgram, core.SessionOptions{Mode: core.ModeTrace, Params: warmParams})
	if err := s.Run(); err != nil {
		t.Fatalf("cold run: %v", err)
	}
	snap := s.ExportSnapshot("cafecafecafecafe", "loop")
	if snap == nil {
		t.Fatal("profiled session exported no snapshot")
	}
	if len(snap.Nodes) == 0 || len(snap.Traces) == 0 {
		t.Fatalf("cold run learned nothing: %d nodes, %d traces", len(snap.Nodes), len(snap.Traces))
	}
	decoded, err := snapshot.Decode(snapshot.Encode(snap))
	if err != nil {
		t.Fatalf("snapshot does not survive its own codec: %v", err)
	}
	return decoded
}

// TestSessionSnapshotRoundTrip pins the session-level warm-start property:
// seeding a fresh session from a snapshot restores the graph exactly (same
// node states, counters, delays) and re-registers traces, without counting
// any of it as churn, and the warm session still computes the right answer.
func TestSessionSnapshotRoundTrip(t *testing.T) {
	snap := coldSnapshot(t)

	warm, out := buildSession(t, loopProgram, core.SessionOptions{
		Mode: core.ModeTrace, Params: warmParams, Snapshot: snap,
	})
	ctr := warm.Counters
	if ctr.SnapshotsLoaded != 1 {
		t.Errorf("SnapshotsLoaded = %d, want 1", ctr.SnapshotsLoaded)
	}
	if ctr.NodesSeededFromSnapshot != int64(len(snap.Nodes)) {
		t.Errorf("NodesSeededFromSnapshot = %d, want %d", ctr.NodesSeededFromSnapshot, len(snap.Nodes))
	}
	if ctr.TracesSeededFromSnapshot == 0 {
		t.Error("no traces re-registered from snapshot")
	}
	if ctr.TracesBuilt != 0 || ctr.TracesReused != 0 {
		t.Errorf("seeding counted as churn: built %d, reused %d, want 0/0",
			ctr.TracesBuilt, ctr.TracesReused)
	}
	if warm.Cache.NumTraces() == 0 {
		t.Error("warm cache holds no traces before the first dispatch")
	}
	if err := warm.Cache.CheckInvariants(); err != nil {
		t.Errorf("seeded session: %v", err)
	}

	// The seeded graph must re-derive exactly the snapshot's states.
	re := warm.ExportSnapshot(snap.ProgramKey, snap.Program)
	if !reflect.DeepEqual(re.Nodes, snap.Nodes) {
		t.Error("seeded graph state differs from the snapshot it was seeded from")
	}

	if err := warm.Run(); err != nil {
		t.Fatalf("warm run: %v", err)
	}
	if got := out.String(); got != "49995000\n" {
		t.Errorf("warm run output = %q, want 49995000", got)
	}
	if warm.Counters.TracesEntered == 0 {
		t.Error("warm run never dispatched a trace")
	}
}

// TestSeedingEmitsNoEvents: a warm start must be silent on the event ring —
// restored state is not churn, so it produces neither node-state nor
// trace-built events.
func TestSeedingEmitsNoEvents(t *testing.T) {
	snap := coldSnapshot(t)
	ring := obs.NewRing(256)
	buildSession(t, loopProgram, core.SessionOptions{
		Mode: core.ModeTrace, Params: warmParams, Snapshot: snap, Sink: ring,
	})
	if n := ring.Total(); n != 0 {
		t.Errorf("seeding emitted %d events, want 0", n)
	}
}

// TestSeedSessionParamsMismatch: a snapshot recorded under different
// profiler parameters must fail session construction rather than silently
// seed state learned under a different regime.
func TestSeedSessionParamsMismatch(t *testing.T) {
	snap := coldSnapshot(t)
	prog, err := jasm.Assemble(loopProgram)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	pcfg, err := cfg.BuildProgram(prog)
	if err != nil {
		t.Fatalf("cfg: %v", err)
	}
	_, err = core.NewSession(prog, pcfg, core.SessionOptions{
		Mode:     core.ModeTrace,
		Params:   profile.Params{Threshold: 0.99, StartDelay: 4, DecayInterval: 64},
		Snapshot: snap,
	})
	if err == nil {
		t.Fatal("params mismatch accepted")
	}
}

// TestSnapshotIgnoredInUnprofiledModes: plain sessions carry no profiler;
// a snapshot option must be ignored, not crash.
func TestSnapshotIgnoredInUnprofiledModes(t *testing.T) {
	snap := coldSnapshot(t)
	s, out := buildSession(t, loopProgram, core.SessionOptions{Mode: core.ModePlain, Snapshot: snap})
	if s.Graph != nil {
		t.Fatal("plain mode grew a profiler")
	}
	if err := s.Run(); err != nil {
		t.Fatalf("plain run with snapshot option: %v", err)
	}
	if got := out.String(); got != "49995000\n" {
		t.Errorf("output = %q", got)
	}
	if s.Counters.SnapshotsLoaded != 0 {
		t.Error("unprofiled session counted a snapshot load")
	}
}
