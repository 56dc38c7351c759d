package serve

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/profile"
	"repro/internal/snapshot"
)

// loopSource is hot enough to classify nodes and build traces in one run.
const loopSource = `class Main { static void main() { int i = 0; int s = 0; while (i < 20000) { s = s + i; i = i + 1; } Sys.printlnInt(s); } }`

func runLoop(t *testing.T, s *Service, req Request) *Response {
	t.Helper()
	if req.Source == "" {
		req.Source = loopSource
	}
	if req.Mode == 0 {
		req.Mode = core.ModeTrace
	}
	resp, err := s.Do(context.Background(), req)
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	return resp
}

// TestWarmStartAcrossRuns: the second run of the same program on the same
// worker reuses the worker's live profiler shard — it relearns nothing, and
// no snapshot round-trip is involved at all.
func TestWarmStartAcrossRuns(t *testing.T) {
	s := newTestService(t, Config{Workers: 1, SnapshotDir: t.TempDir()})

	cold := runLoop(t, s, Request{})
	if cold.Counters.NodesSeededFromSnapshot != 0 {
		t.Error("first run claims to have been seeded")
	}
	if cold.Counters.TracesBuilt == 0 {
		t.Fatal("cold run built no traces; warm start has nothing to prove")
	}

	warm := runLoop(t, s, Request{})
	if warm.Counters.NodesCreated != 0 {
		t.Errorf("shard reuse relearned %d nodes, want 0", warm.Counters.NodesCreated)
	}
	if warm.Counters.SnapshotsLoaded != 0 {
		t.Errorf("SnapshotsLoaded = %d, want 0: warm state lives in the shard, not a snapshot",
			warm.Counters.SnapshotsLoaded)
	}
	if warm.BCGNodes == 0 {
		t.Error("second run sees an empty graph; the shard did not carry over")
	}
	if warm.Output != cold.Output {
		t.Errorf("warm output %q differs from cold %q", warm.Output, cold.Output)
	}

	stats := s.Stats()
	if stats.ShardPrograms != 1 || stats.LiveShards != 1 {
		t.Errorf("shard gauges = (%d programs, %d shards), want (1, 1)",
			stats.ShardPrograms, stats.LiveShards)
	}
}

// TestWarmStartAcrossServices: learned state survives a restart through the
// snapshot directory — service one drains and commits, service two probes
// the directory and seeds.
func TestWarmStartAcrossServices(t *testing.T) {
	dir := t.TempDir()

	s1 := New(Config{Workers: 1, SnapshotDir: dir})
	key := runLoop(t, s1, Request{}).Key
	s1.Close()

	files, err := filepath.Glob(filepath.Join(dir, "*"+snapExt))
	if err != nil || len(files) != 1 {
		t.Fatalf("after drain: snapshot files = %v (err %v), want exactly one", files, err)
	}
	data, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	snap, err := snapshot.Decode(data)
	if err != nil {
		t.Fatalf("committed file does not decode: %v", err)
	}
	if err := snap.VerifyKey(key); err != nil {
		t.Errorf("committed snapshot keyed to the wrong program: %v", err)
	}

	s2 := newTestService(t, Config{Workers: 1, SnapshotDir: dir})
	warm := runLoop(t, s2, Request{})
	if warm.Counters.SnapshotsLoaded != 1 || warm.Counters.NodesSeededFromSnapshot == 0 {
		t.Errorf("restarted service did not warm start: loaded=%d seeded=%d",
			warm.Counters.SnapshotsLoaded, warm.Counters.NodesSeededFromSnapshot)
	}
	if s2.Stats().Global.SnapshotsSaved != 0 {
		// s2 merges its own journal only; s1's saves belong to s1.
		t.Log("note: s2 journal nonzero (coalescing writer committed during test)")
	}
}

// TestParamsMismatchRunsCold: a request under different profiler parameters
// must not seed from state learned under other ones — it silently runs cold.
func TestParamsMismatchRunsCold(t *testing.T) {
	s := newTestService(t, Config{Workers: 1, SnapshotDir: t.TempDir()})
	runLoop(t, s, Request{})
	warm := runLoop(t, s, Request{Threshold: 0.99})
	if warm.Counters.SnapshotsLoaded != 0 || warm.Counters.NodesSeededFromSnapshot != 0 {
		t.Errorf("mismatched params still seeded: loaded=%d seeded=%d",
			warm.Counters.SnapshotsLoaded, warm.Counters.NodesSeededFromSnapshot)
	}
}

// TestCoalescingCommit: crossing the net threshold wakes the writer without
// waiting for the interval tick.
func TestCoalescingCommit(t *testing.T) {
	dir := t.TempDir()
	s := newTestService(t, Config{
		Workers: 1, SnapshotDir: dir,
		SnapshotInterval: time.Hour, // interval commits effectively disabled
		SnapshotNet:      1,         // every run's delta crosses the threshold
	})
	runLoop(t, s, Request{})
	// The file turns durable a moment before the journal counts it (the
	// commit crash point sits between the two), so wait for both.
	deadline := time.Now().Add(5 * time.Second)
	for {
		files, _ := filepath.Glob(filepath.Join(dir, "*"+snapExt))
		saved := s.Stats().Global.SnapshotsSaved
		if len(files) == 1 && saved > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("net-threshold crossing never committed a snapshot: %d files, %d saves counted", len(files), saved)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestInstallAndFetchSnapshot covers the PUT/GET path at the service level:
// install adopts a snapshot as warm state, fetch returns it, and garbage is
// rejected and counted.
func TestInstallAndFetchSnapshot(t *testing.T) {
	s := newTestService(t, Config{Workers: 1, SnapshotDir: t.TempDir()})

	want := &snapshot.Snapshot{
		ProgramKey: "abcdef0123456789",
		Program:    "external",
		Params:     profile.DefaultParams(),
	}
	got, err := s.InstallSnapshot(snapshot.Encode(want))
	if err != nil {
		t.Fatalf("InstallSnapshot: %v", err)
	}
	if got.ProgramKey != want.ProgramKey {
		t.Errorf("installed key %q", got.ProgramKey)
	}
	data, ok := s.SnapshotBytes(want.ProgramKey)
	if !ok {
		t.Fatal("installed snapshot not fetchable")
	}
	back, err := snapshot.Decode(data)
	if err != nil || back.ProgramKey != want.ProgramKey {
		t.Errorf("fetched snapshot: %+v, %v", back, err)
	}

	if _, err := s.InstallSnapshot([]byte("garbage")); err == nil {
		t.Fatal("garbage accepted")
	}
	if rej := s.Stats().Global.SnapshotsRejected; rej == 0 {
		t.Error("rejection not counted")
	}

	// A syntactically valid snapshot with a path-splicing key is refused.
	evil := &snapshot.Snapshot{ProgramKey: "../escape", Params: profile.DefaultParams()}
	if _, err := s.InstallSnapshot(snapshot.Encode(evil)); err == nil {
		t.Fatal("path-splicing key accepted")
	}
}

// TestInstallOnLiveProgram: a snapshot PUT for a program whose shard set is
// live replaces that set's learned state — a later GET returns the upload,
// and the drain commit writes the upload, not the shards' older learning.
func TestInstallOnLiveProgram(t *testing.T) {
	dir := t.TempDir()
	s := New(Config{Workers: 1, SnapshotDir: dir})
	resp := runLoop(t, s, Request{})
	if resp.BCGNodes == 0 {
		s.Close()
		t.Fatal("the run learned nothing; the upload would replace nothing")
	}

	upload := &snapshot.Snapshot{ProgramKey: resp.Key, Program: resp.Program, Params: profile.DefaultParams()}
	if _, err := s.InstallSnapshot(snapshot.Encode(upload)); err != nil {
		s.Close()
		t.Fatalf("InstallSnapshot: %v", err)
	}
	data, ok := s.SnapshotBytes(resp.Key)
	if !ok {
		s.Close()
		t.Fatal("SnapshotBytes found nothing after the install")
	}
	if got, err := snapshot.Decode(data); err != nil || len(got.Nodes) != 0 {
		t.Errorf("GET after PUT: %v nodes (err %v), want the 0-node upload", nodeCount(got), err)
	}
	s.Close()

	data, err := os.ReadFile(filepath.Join(dir, resp.Key+snapExt))
	if err != nil {
		t.Fatal(err)
	}
	if got, err := snapshot.Decode(data); err != nil || len(got.Nodes) != 0 {
		t.Errorf("committed after drain: %v nodes (err %v), want the 0-node upload", nodeCount(got), err)
	}
}

// TestInstallDuringTraffic: PUTs racing profiled runs, per-run epoch merges
// and the writer's commits keep every run correct, and once traffic stops
// the last upload is what GET returns and what the drain commits.
func TestInstallDuringTraffic(t *testing.T) {
	dir := t.TempDir()
	s := New(Config{Workers: 2, QueueDepth: 16, SnapshotDir: dir, SnapshotNet: 1, EpochRuns: 1})
	cold := runLoop(t, s, Request{})
	upload := snapshot.Encode(&snapshot.Snapshot{ProgramKey: cold.Key, Program: cold.Program, Params: profile.DefaultParams()})

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			resp, err := s.Do(context.Background(), Request{Source: loopSource, Mode: core.ModeTrace})
			if err != nil {
				t.Error(err)
			} else if resp.Output != cold.Output {
				t.Errorf("output %q during installs, want %q", resp.Output, cold.Output)
			}
		}()
		go func() {
			defer wg.Done()
			if _, err := s.InstallSnapshot(upload); err != nil {
				t.Error(err)
			}
			s.SnapshotBytes(cold.Key)
		}()
	}
	wg.Wait()

	if _, err := s.InstallSnapshot(upload); err != nil {
		s.Close()
		t.Fatal(err)
	}
	if data, ok := s.SnapshotBytes(cold.Key); !ok || !bytes.Equal(data, upload) {
		t.Errorf("GET after the last PUT: %d bytes (found %v), want the %d-byte upload", len(data), ok, len(upload))
	}
	s.Close()
	if data, err := os.ReadFile(filepath.Join(dir, cold.Key+snapExt)); err != nil || !bytes.Equal(data, upload) {
		t.Errorf("drain committed %d bytes (err %v), want the %d-byte upload", len(data), err, len(upload))
	}
}

func nodeCount(s *snapshot.Snapshot) int {
	if s == nil {
		return -1
	}
	return len(s.Nodes)
}

// TestStartupScrubQuarantinesCorruptSnapshot: a bit-flipped .tsnap in the
// snapshot directory is moved to a .corrupt sidecar at service construction,
// counted, and the service stays fully functional — the poisoned program
// simply runs cold while an intact neighbor still warm-starts.
func TestStartupScrubQuarantinesCorruptSnapshot(t *testing.T) {
	dir := t.TempDir()

	s1 := New(Config{Workers: 1, SnapshotDir: dir})
	key := runLoop(t, s1, Request{}).Key
	s1.Close()

	victim := filepath.Join(dir, key+snapExt)
	data, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x04
	if err := os.WriteFile(victim, data, 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := newTestService(t, Config{Workers: 1, SnapshotDir: dir})
	if q := s2.Stats().Global.SnapshotsQuarantined; q != 1 {
		t.Fatalf("SnapshotsQuarantined = %d, want 1", q)
	}
	if _, err := os.Stat(victim + snapshot.CorruptExt); err != nil {
		t.Errorf("no .corrupt sidecar: %v", err)
	}
	if _, err := os.Stat(victim); !os.IsNotExist(err) {
		t.Error("corrupt file still visible to loaders")
	}

	// The service is healthy: the program runs (cold) and learns again.
	resp := runLoop(t, s2, Request{})
	if resp.Counters.SnapshotsLoaded != 0 || resp.Counters.NodesSeededFromSnapshot != 0 {
		t.Errorf("run seeded from a quarantined snapshot: loaded=%d seeded=%d",
			resp.Counters.SnapshotsLoaded, resp.Counters.NodesSeededFromSnapshot)
	}
	if resp.Counters.TracesBuilt == 0 {
		t.Error("post-quarantine run learned nothing")
	}
}

// TestSnapshotDisabled: without a snapshot dir the service reports the
// feature off and runs stay cold.
func TestSnapshotDisabled(t *testing.T) {
	s := newTestService(t, Config{Workers: 1})
	if s.SnapshotEnabled() {
		t.Error("SnapshotEnabled with no dir")
	}
	if _, ok := s.SnapshotBytes("anything"); ok {
		t.Error("SnapshotBytes returned data with persistence disabled")
	}
	runLoop(t, s, Request{})
	warm := runLoop(t, s, Request{})
	if warm.Counters.SnapshotsLoaded != 0 {
		t.Error("disabled store still seeded a session")
	}
}
