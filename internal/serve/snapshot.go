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

// snapStore is the service's profile-persistence layer: the disk probe that
// warm-starts a program's shard set, and the coalescing writer that commits
// the set's merged view.
//
// A program's learned state lives in its shard sets (epoch.go); the store
// holds none of it. The durable path follows the coalescing-commit
// discipline: runs accumulate a per-program learning delta,
// and the background writer commits a program's snapshot when the
// accumulated delta crosses the net threshold or the interval elapses, never
// per run — keeping disk I/O off the request path and amortizing bursts into
// single writes. Each commit pulls a fresh epoch merge of the program's
// first set from the coordinator.
//
// Store operations happen at set creation, run release, and in the writer
// goroutine; nothing here is ever called from the dispatch hot path.
type snapStore struct {
	dir      string
	interval time.Duration
	net      int64
	ring     *obs.Ring
	ec       *epochCoordinator

	// journal counts store-level lifecycle events (saves, rejections);
	// session-level loads are counted by the sessions themselves.
	journal snapshot.Journal

	// commitMu serializes commits — the writer's flushes and PUT installs —
	// so a commit in flight never lands over a newer upload.
	commitMu sync.Mutex

	mu sync.Mutex
	// dirty is the learning delta per program key since its last commit.
	dirty map[string]int64

	wake    chan struct{}
	stopped chan struct{}
	done    chan struct{}
}

// snapExt is the on-disk suffix; files are named <programKey>.tsnap.
const snapExt = ".tsnap"

const (
	defaultSnapshotInterval = 30 * time.Second
	defaultSnapshotNet      = 512
)

// newSnapStore builds the store, attaches it to the coordinator whose sets
// it persists, and starts its writer. dir must be non-empty.
func newSnapStore(dir string, interval time.Duration, net int64, ring *obs.Ring, ec *epochCoordinator) *snapStore {
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
		ec:       ec,
		dirty:    make(map[string]int64),
		wake:     make(chan struct{}, 1),
		stopped:  make(chan struct{}),
		done:     make(chan struct{}),
	}
	ec.snaps = st
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
		return // an unreadable directory will surface on the first load
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

// load probes the snapshot directory for a program's committed state. Nil
// when nothing valid is stored; a damaged file is counted and refused.
func (st *snapStore) load(key, name string) *snapshot.Snapshot {
	if !validKey(key) {
		return nil
	}
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
	st.emit(obs.EvSnapshotLoaded, name, int64(len(snap.Nodes)))
	return snap
}

// noteDirty accumulates a run's learning delta toward the commit threshold,
// waking the writer when it is crossed.
func (st *snapStore) noteDirty(key string, delta int64) {
	st.mu.Lock()
	st.dirty[key] += delta
	over := st.dirty[key] >= st.net
	st.mu.Unlock()
	if over {
		st.kick()
	}
}

// install commits an uploaded snapshot (PUT /v1/snapshot) durably, then
// makes it the merged view of the program's live set under the same
// parameters, if there is one.
func (st *snapStore) install(snap *snapshot.Snapshot) error {
	st.commitMu.Lock()
	defer st.commitMu.Unlock()
	if err := st.commit(snap); err != nil {
		return err
	}
	st.ec.install(snap)
	st.emit(obs.EvSnapshotLoaded, snap.Program, int64(len(snap.Nodes)))
	return nil
}

// commit writes a snapshot durably as its program's .tsnap. Callers hold
// commitMu.
func (st *snapStore) commit(snap *snapshot.Snapshot) error {
	if err := frame.WriteAtomic(st.fileFor(snap.ProgramKey), snapshot.Encode(snap)); err != nil {
		return err
	}
	// Crash point: the commit is durable but unaccounted — restart must
	// warm-start from exactly this file.
	crash.Here(crash.PointSnapshotCommit)
	st.journal.Saved()
	st.emit(obs.EvSnapshotSaved, snap.Program, int64(len(snap.Nodes)))
	return nil
}

// kick nudges the writer without blocking; a pending nudge is enough.
func (st *snapStore) kick() {
	select {
	case st.wake <- struct{}{}:
	default:
	}
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

// pending reports the programs whose learning deltas await a commit.
func (st *snapStore) pending() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.dirty)
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

// flush commits dirty programs: every one past the net threshold, plus — on
// interval ticks and the final drain — everything dirty at all. Each
// program's state is pulled fresh (an epoch merge of its first set) at this
// moment; wait is forwarded to the merge and is true only on the drain
// commit. A program that yields nothing committable (the merge absorbed no
// shard, or the write failed) is re-marked dirty so the next cycle retries
// it.
func (st *snapStore) flush(thresholdOnly, wait bool) {
	type pending struct {
		key   string
		delta int64
	}
	st.commitMu.Lock()
	defer st.commitMu.Unlock()
	var work []pending
	st.mu.Lock()
	for key, d := range st.dirty {
		if thresholdOnly && d < st.net {
			continue
		}
		work = append(work, pending{key: key, delta: d})
		delete(st.dirty, key)
	}
	st.mu.Unlock()

	for _, w := range work {
		snap := st.ec.exportForCommit(w.key, wait)
		if snap == nil || st.commit(snap) != nil {
			st.mu.Lock()
			st.dirty[w.key] += w.delta
			st.mu.Unlock()
		}
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

// SnapshotBytes returns the encoded learned state of a registry key: a fresh
// merge of the program's first shard set, or — when that merge absorbs no
// shard (every one busy, or the program not run since start or since its
// last PUT) — its committed snapshot on disk. The second result is false
// when persistence is disabled or nothing valid exists for the key.
func (s *Service) SnapshotBytes(key string) ([]byte, bool) {
	if s.snaps == nil {
		return nil, false
	}
	snap := s.epochs.exportForCommit(key, false)
	if snap == nil {
		snap = s.snaps.load(key, "")
	}
	if snap == nil {
		return nil, false
	}
	return snapshot.Encode(snap), true
}

// InstallSnapshot decodes and validates a serialized snapshot (the PUT
// /v1/snapshot path), commits it durably, and makes it the learned state of
// the program's live shard set under the same parameters, if there is one.
// The returned snapshot describes what was installed. Rejections are
// counted and emitted like any other refused snapshot.
func (s *Service) InstallSnapshot(data []byte) (*snapshot.Snapshot, error) {
	if s.snaps == nil {
		return nil, errors.New("serve: snapshot persistence disabled")
	}
	snap, err := snapshot.Decode(data)
	if err != nil {
		s.snaps.reject("")
		return nil, err
	}
	if !validKey(snap.ProgramKey) {
		s.snaps.reject(snap.Program)
		return nil, fmt.Errorf("%w: unusable program key %q", snapshot.ErrCorrupt, snap.ProgramKey)
	}
	if err := s.snaps.install(snap); err != nil {
		return nil, err
	}
	return snap, nil
}
