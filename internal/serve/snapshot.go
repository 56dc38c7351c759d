package serve

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/faultinject/crash"
	"repro/internal/frame"
	"repro/internal/obs"
	"repro/internal/snapshot"
)

// snapStore is the service's profile-persistence layer: the warm-start cache
// of per-program learned state and the coalescing writer that commits it.
//
// Sessions are per-request, so learned state would die with each run; the
// store retains the latest export per program key and seeds it into every
// later profiled session of the same program — the in-memory warm path. The
// durable path follows the coalescing-commit discipline (ROADMAP item 3):
// runs accumulate a per-program learning delta, and the background writer
// commits a program's snapshot when the accumulated delta crosses the net
// threshold or the interval elapses, never per run — keeping disk I/O off
// the request path and amortizing bursts into single writes.
//
// Store operations happen at session construction/teardown and in the
// writer goroutine; nothing here is ever called from the dispatch hot path.
type snapStore struct {
	dir      string
	interval time.Duration
	net      int64
	ring     *obs.Ring

	// exporter, when set (sharded profiling), produces the freshest learned
	// state for a program at commit time: each commit is a phase boundary
	// that pulls an epoch merge on demand. Runs then only accumulate deltas
	// (noteDirty) and never export. wait asks the merge to wait for busy
	// shards — true only on the final drain commit, when the workers have
	// exited. A nil return (no shard set, or nothing absorbed) falls back to
	// the entry's stored snapshot. Set once before the service starts; called
	// only outside st.mu.
	exporter func(key string, wait bool) *snapshot.Snapshot

	// journal counts store-level lifecycle events (saves, rejections);
	// session-level loads are counted by the sessions themselves.
	journal snapshot.Journal

	mu      sync.Mutex
	entries map[string]*snapEntry

	wake    chan struct{}
	stopped chan struct{}
	done    chan struct{}
}

// snapEntry is one program's persistence state.
type snapEntry struct {
	name string
	snap *snapshot.Snapshot
	// dirty accumulates the learning delta since the last commit; the
	// writer commits when it crosses the store's net threshold or on the
	// interval tick.
	dirty int64
	// loadTried marks the one-time disk probe (hit or miss), so a program
	// with no stored snapshot costs one stat per process, not per request.
	loadTried bool
}

// snapExt is the on-disk suffix; files are named <programKey>.tsnap.
const snapExt = ".tsnap"

const (
	defaultSnapshotInterval = 30 * time.Second
	defaultSnapshotNet      = 512
)

// newSnapStore builds the store and starts its writer. dir must be non-empty.
func newSnapStore(dir string, interval time.Duration, net int64, ring *obs.Ring) *snapStore {
	if interval <= 0 {
		interval = defaultSnapshotInterval
	}
	if net <= 0 {
		net = defaultSnapshotNet
	}
	_ = os.MkdirAll(dir, 0o755)
	st := &snapStore{
		dir:      dir,
		interval: interval,
		net:      net,
		ring:     ring,
		entries:  make(map[string]*snapEntry),
		wake:     make(chan struct{}, 1),
		stopped:  make(chan struct{}),
		done:     make(chan struct{}),
	}
	st.scrub()
	go st.flushLoop()
	return st
}

// scrub is the self-healing startup pass: before the store trusts a snapshot
// directory the process may have crashed over, every .tsnap file is
// decode-validated and corrupt ones are quarantined to .corrupt sidecars —
// a poisoned file must cost one counter bump and an event, never a failed
// warm start or silently loaded garbage.
func (st *snapStore) scrub() {
	rep, err := snapshot.ScrubDir(st.dir, true)
	if err != nil {
		return // an unreadable directory will surface on the first lookup
	}
	for _, f := range rep.Corrupt {
		st.journal.Quarantined()
		var size int64
		if f.Quarantined != "" {
			if fi, err := os.Stat(f.Quarantined); err == nil {
				size = fi.Size()
			}
		}
		st.emit(obs.EvSnapshotQuarantined, filepath.Base(f.Path), size)
	}
}

// validKey accepts only registry-style content-hash keys as file name
// material; anything else (in particular a hostile PUT body) is refused
// rather than spliced into a path.
func validKey(key string) bool {
	if key == "" || len(key) > 128 {
		return false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		switch {
		case c >= '0' && c <= '9', c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '-', c == '_':
		default:
			return false
		}
	}
	return true
}

func (st *snapStore) fileFor(key string) string {
	return filepath.Join(st.dir, key+snapExt)
}

// lookup returns the warm snapshot for a program key, probing the snapshot
// directory once per key ("first sight of a known hash"). Returns nil when
// nothing valid is stored.
func (st *snapStore) lookup(key, name string) *snapshot.Snapshot {
	if !validKey(key) {
		return nil
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	e := st.entry(key, name)
	if e.snap != nil || e.loadTried {
		return e.snap
	}
	e.loadTried = true
	data, err := os.ReadFile(st.fileFor(key))
	if err != nil {
		if !errors.Is(err, fs.ErrNotExist) {
			st.reject(name)
		}
		return nil
	}
	snap, err := snapshot.Decode(data)
	if err == nil {
		err = snap.VerifyKey(key)
	}
	if err != nil {
		st.reject(name)
		return nil
	}
	e.snap = snap
	st.emit(obs.EvSnapshotLoaded, name, int64(len(snap.Nodes)))
	return snap
}

// entry returns (creating) the record for key. Callers hold the lock.
func (st *snapStore) entry(key, name string) *snapEntry {
	e := st.entries[key]
	if e == nil {
		e = &snapEntry{name: name}
		st.entries[key] = e
	}
	if e.name == "" {
		e.name = name
	}
	return e
}

// update replaces a program's warm snapshot after a run and accumulates its
// learning delta toward the commit threshold.
func (st *snapStore) update(key, name string, snap *snapshot.Snapshot, delta int64) {
	if snap == nil || !validKey(key) {
		return
	}
	if delta < 1 {
		delta = 1
	}
	st.mu.Lock()
	e := st.entry(key, name)
	e.snap = snap
	e.loadTried = true
	e.dirty += delta
	over := e.dirty >= st.net
	st.mu.Unlock()
	if over {
		st.kick()
	}
}

// noteDirty accumulates a sharded run's learning delta toward the commit
// threshold without touching the warm snapshot — the exporter supplies the
// actual state when the writer commits.
func (st *snapStore) noteDirty(key, name string, delta int64) {
	if !validKey(key) {
		return
	}
	if delta < 1 {
		delta = 1
	}
	st.mu.Lock()
	e := st.entry(key, name)
	e.dirty += delta
	over := e.dirty >= st.net
	st.mu.Unlock()
	if over {
		st.kick()
	}
}

// install adopts an externally supplied snapshot (PUT /v1/snapshot) as the
// program's warm state and schedules it for commit.
func (st *snapStore) install(snap *snapshot.Snapshot) error {
	if !validKey(snap.ProgramKey) {
		return fmt.Errorf("%w: unusable program key %q", snapshot.ErrCorrupt, snap.ProgramKey)
	}
	st.mu.Lock()
	e := st.entry(snap.ProgramKey, snap.Program)
	e.snap = snap
	e.loadTried = true
	e.dirty += st.net // an explicit install always commits at the next wake
	st.mu.Unlock()
	st.emit(obs.EvSnapshotLoaded, snap.Program, int64(len(snap.Nodes)))
	st.kick()
	return nil
}

// kick nudges the writer without blocking; a pending nudge is enough.
func (st *snapStore) kick() {
	select {
	case st.wake <- struct{}{}:
	default:
	}
}

// encoded returns the serialized warm snapshot for key. Under sharded
// profiling it asks the exporter for a fresh merged view first — a snapshot
// GET should see the live learned state, not the last commit — and falls
// back to the stored entry (probing disk like lookup does) when the
// coordinator has nothing for the key.
func (st *snapStore) encoded(key, name string) ([]byte, bool) {
	if st.exporter != nil && validKey(key) {
		if snap := st.exporter(key, false); snap != nil {
			st.adopt(key, name, snap)
			return snapshot.Encode(snap), true
		}
	}
	snap := st.lookup(key, name)
	if snap == nil {
		return nil, false
	}
	return snapshot.Encode(snap), true
}

// adopt stores a freshly merged snapshot as the entry's warm state.
func (st *snapStore) adopt(key, name string, snap *snapshot.Snapshot) {
	st.mu.Lock()
	e := st.entry(key, name)
	e.snap = snap
	e.loadTried = true
	st.mu.Unlock()
}

// reject counts one refused snapshot and emits its event.
func (st *snapStore) reject(name string) {
	st.journal.Rejected()
	st.emit(obs.EvSnapshotRejected, name, 0)
}

func (st *snapStore) emit(typ obs.EventType, program string, val int64) {
	st.ring.Emit(obs.Event{
		Type: typ,
		X:    obs.NoID, Y: obs.NoID, TraceID: obs.NoID,
		Val: val, Program: program,
	})
}

// gauges reports (programs with a warm snapshot, programs with uncommitted
// deltas) for the stats snapshot.
func (st *snapStore) gauges() (programs, pending int) {
	st.mu.Lock()
	defer st.mu.Unlock()
	for _, e := range st.entries {
		if e.snap != nil {
			programs++
		}
		if e.dirty > 0 {
			pending++
		}
	}
	return programs, pending
}

// flushLoop is the coalescing writer: one goroutine, committing on the
// interval tick or when an accumulated delta crosses the net threshold.
func (st *snapStore) flushLoop() {
	defer close(st.done)
	t := time.NewTicker(st.interval)
	defer t.Stop()
	for {
		select {
		case <-st.stopped:
			return
		case <-t.C:
			st.flush(false, false)
		case <-st.wake:
			st.flush(true, false)
		}
	}
}

// flush commits dirty entries: every entry past the net threshold, plus —
// on interval ticks and the final drain — everything dirty at all. With an
// exporter attached, each committed entry's state is pulled fresh (an epoch
// merge) at this moment; wait is forwarded to it and is true only on the
// drain commit. Encoding, exporting and file I/O happen outside the entry
// lock; an entry that yields nothing committable (busy shards, failed write)
// is re-marked dirty so the next cycle retries it.
func (st *snapStore) flush(thresholdOnly, wait bool) {
	type pending struct {
		key, name string
		snap      *snapshot.Snapshot
		delta     int64
	}
	var work []pending
	st.mu.Lock()
	for key, e := range st.entries {
		if e.dirty == 0 || (thresholdOnly && e.dirty < st.net) {
			continue
		}
		if e.snap == nil && st.exporter == nil {
			continue
		}
		work = append(work, pending{key: key, name: e.name, snap: e.snap, delta: e.dirty})
		e.dirty = 0
	}
	st.mu.Unlock()

	requeue := func(key string, delta int64) {
		st.mu.Lock()
		if e := st.entries[key]; e != nil {
			e.dirty += delta
		}
		st.mu.Unlock()
	}
	for _, w := range work {
		snap := w.snap
		if st.exporter != nil {
			if m := st.exporter(w.key, wait); m != nil {
				snap = m
				st.adopt(w.key, w.name, m)
			}
		}
		if snap == nil {
			requeue(w.key, w.delta)
			continue
		}
		if err := frame.WriteAtomic(st.fileFor(w.key), snapshot.Encode(snap)); err != nil {
			requeue(w.key, w.delta)
			continue
		}
		// Crash point: the commit is durable but unaccounted — restart must
		// warm-start from exactly this file.
		crash.Here(crash.PointSnapshotCommit)
		st.journal.Saved()
		st.emit(obs.EvSnapshotSaved, w.name, int64(len(snap.Nodes)))
	}
}

// close stops the writer and performs the final save-on-drain commit. The
// workers have exited by now, so the drain flush may wait on every shard.
func (st *snapStore) close() {
	close(st.stopped)
	<-st.done
	st.flush(false, true)
}

// SnapshotEnabled reports whether the service was configured with profile
// persistence (Config.SnapshotDir).
func (s *Service) SnapshotEnabled() bool { return s.snaps != nil }

// SnapshotBytes returns the encoded warm snapshot for a registry key,
// probing the snapshot directory if the program has not been seen yet.
// The second result is false when persistence is disabled or nothing valid
// is stored for the key.
func (s *Service) SnapshotBytes(key string) ([]byte, bool) {
	if s.snaps == nil {
		return nil, false
	}
	return s.snaps.encoded(key, "")
}

// InstallSnapshot decodes, validates and adopts a serialized snapshot as a
// program's warm state (the PUT /v1/snapshot path), scheduling it for
// commit. The returned snapshot describes what was installed. Rejections
// are counted and emitted like any other refused snapshot.
func (s *Service) InstallSnapshot(data []byte) (*snapshot.Snapshot, error) {
	if s.snaps == nil {
		return nil, errors.New("serve: snapshot persistence disabled")
	}
	snap, err := snapshot.Decode(data)
	if err != nil {
		s.snaps.reject("")
		return nil, err
	}
	if err := s.snaps.install(snap); err != nil {
		s.snaps.reject(snap.Program)
		return nil, err
	}
	return snap, nil
}
