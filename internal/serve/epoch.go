package serve

import (
	"sync"
	"sync/atomic"

	"repro/internal/analysis"
	"repro/internal/analysis/valueflow"
	"repro/internal/cfg"
	"repro/internal/core"
	"repro/internal/faultinject/crash"
	"repro/internal/obs"
	"repro/internal/profile"
	"repro/internal/snapshot"
)

// This file is the serving layer's side of multicore scale-out, and the one
// in-memory home of every program's learned state: per-worker BCG shards
// with merge on read.
//
// A program has one shard set per profiler parameters it runs under. In a
// set every worker owns a private core.Profiler (a shard): runs take exactly
// one uncontended lock, the dispatch hot path touches only worker-local
// arenas, and nothing is exported per run. A release only marks the set
// dirty. The merge happens when something reads the merged view: a fresh
// shard about to seed from it, the snapshot writer or GET /v1/snapshot, and
// drain. The coordinator then merges the shards' decayed counters into a
// fresh profiler, re-derives node states/signals/start-delays from the
// combined history (so the merged trace cache promotes only globally hot
// traces), and publishes the result as the set's merged view — never an
// individual shard. The program's first set is the persisted one; sets under
// other parameters live in memory only.

// workerShard is one worker's private profiler in one shard set. The mutex is
// held for the duration of a run (workers never share a shard, so it is
// uncontended except against a concurrent epoch merge, which only reads).
type workerShard struct {
	mu   sync.Mutex
	prof *core.Profiler
	gen  int64 // the set generation prof was built at
}

// shardSet is one program's sharding state under one set of profiler
// parameters: a fixed shard slot per worker plus the latest merged view.
type shardSet struct {
	key, name string
	params    profile.Params
	hints     *analysis.Hints
	prover    core.GuardProver // static guard oracle; stamps shard-built traces
	numBlocks int
	// persist marks the program's first set: the one the snapshot writer
	// commits and GET /v1/snapshot reads.
	persist bool

	// Tier-2 compilation state. cfgp/facts feed each shard's compile
	// environment; compiled is the set-wide memo of lowered trace programs,
	// shared by every shard so a block sequence compiles at most once and the
	// compiled form is per-merged-view — a trace rebuilt from the merged
	// snapshot in any shard rebinds to the same immutable Program. Nil when
	// the trace-cache config leaves CompileTraces off.
	cfgp     *cfg.ProgramCFG
	facts    *valueflow.Facts
	compiled *core.CompiledStore

	shards []*workerShard

	mu sync.Mutex
	// merged is the latest merged view — before the first merge, the
	// snapshot found on disk when the set was created — and seeds fresh
	// shards.
	merged *snapshot.Snapshot
	// gen counts PUT installs: each replaces merged outright, so shards built
	// at an older generation rebuild from it and merges of their state are
	// dropped.
	gen int64
	// dirty marks runs released since the last merge began: merged may lag
	// the shards, so a fresh shard merges before it seeds.
	dirty atomic.Bool
}

// epochCoordinator owns every program's shard sets and performs the merges.
type epochCoordinator struct {
	workers int
	conf    core.Config // trace-cache budgets for shard and merged profilers
	ring    *obs.Ring
	// snaps is the persistence store (nil when persistence is off): new sets
	// probe it for a warm seed, and releases note their learning in it.
	snaps *snapStore

	mu   sync.Mutex
	sets map[string][]*shardSet // by program key, in creation order

	// Lifetime accounting, read by Stats.
	merges       atomic.Int64
	shardsMerged atomic.Int64
	liveShards   atomic.Int64
}

func newEpochCoordinator(workers int, conf core.Config, ring *obs.Ring) *epochCoordinator {
	return &epochCoordinator{
		workers: workers,
		conf:    conf,
		ring:    ring,
		sets:    make(map[string][]*shardSet),
	}
}

// acquire locks and returns workerID's shard in the program's set for
// params, creating the set on first sight.
func (ec *epochCoordinator) acquire(comp *Compiled, params profile.Params, workerID int) (*workerShard, *shardSet) {
	set := ec.setFor(comp, params)
	sh := set.shards[workerID]
	sh.mu.Lock()
	return sh, set
}

// find returns the program's set for params, nil if there is none. Callers
// hold ec.mu.
func (ec *epochCoordinator) find(key string, params profile.Params) *shardSet {
	for _, set := range ec.sets[key] {
		if set.params == params {
			return set
		}
	}
	return nil
}

// setFor returns the program's set for params, creating it on first sight.
// A new set probes the snapshot directory once, holding its own lock so that
// its first runs wait for the warm seed instead of starting cold.
func (ec *epochCoordinator) setFor(comp *Compiled, params profile.Params) *shardSet {
	ec.mu.Lock()
	if set := ec.find(comp.Key, params); set != nil {
		ec.mu.Unlock()
		return set
	}
	set := &shardSet{
		key:     comp.Key,
		name:    comp.Name,
		params:  params,
		hints:   comp.Hints,
		persist: len(ec.sets[comp.Key]) == 0,
		shards:  make([]*workerShard, ec.workers),
	}
	if comp.Facts != nil && comp.CFG != nil {
		set.prover = valueflow.NewOracle(comp.Facts, comp.CFG)
	}
	if ec.conf.CompileTraces && comp.CFG != nil {
		set.cfgp = comp.CFG
		set.facts = comp.Facts
		set.compiled = core.NewCompiledStore()
	}
	for i := range set.shards {
		set.shards[i] = &workerShard{}
	}
	if comp.CFG != nil {
		set.numBlocks = comp.CFG.NumBlocks()
	}
	set.mu.Lock()
	ec.sets[comp.Key] = append(ec.sets[comp.Key], set)
	ec.mu.Unlock()
	if ec.snaps != nil {
		// Seeded only under the exact parameters the state was learned with;
		// anything else runs cold.
		if warm := ec.snaps.load(comp.Key, comp.Name); warm != nil && warm.Params == params {
			set.merged = warm
		}
	}
	set.mu.Unlock()
	return set
}

// profiler returns the locked shard's profiler. An empty shard (first run,
// or discarded after a panic) or one built before a PUT gets a fresh
// profiler, returned with the set's merged view to seed it from (nil: cold
// start). The fresh shard is the merged view's reader, so a dirty set merges
// first; the shard being rebuilt is locked and takes no part.
func (ec *epochCoordinator) profiler(sh *workerShard, set *shardSet) (*core.Profiler, *snapshot.Snapshot, error) {
	set.mu.Lock()
	gen := set.gen
	set.mu.Unlock()
	if sh.prof != nil && sh.gen == gen {
		return sh.prof, nil, nil
	}
	ec.discard(sh)
	if set.dirty.Load() {
		ec.merge(set, false)
	}
	set.mu.Lock()
	merged, gen := set.merged, set.gen
	set.mu.Unlock()
	prof, err := core.NewProfiler(set.params, ec.conf, set.hints, set.numBlocks)
	if err != nil {
		return nil, nil, err
	}
	if set.prover != nil {
		prof.SetProver(set.prover)
	}
	if set.compiled != nil {
		prof.EnableCompile(set.cfgp, set.facts, set.compiled)
	}
	sh.prof, sh.gen = prof, gen
	ec.liveShards.Add(1)
	return prof, merged, nil
}

// discard drops a locked shard's profiler (after a panicking run left it in
// an unknown state); the next run rebuilds from the merged view.
func (ec *epochCoordinator) discard(sh *workerShard) {
	if sh.prof != nil {
		sh.prof = nil
		ec.liveShards.Add(-1)
	}
}

// release unlocks a shard after a run, notes the run's learning delta toward
// the snapshot writer's threshold, and marks the set dirty for the merged
// view's next reader. The delta is noted only once the shard is unlocked, so
// the commit it may trigger can absorb this run. It runs after every
// profiled request, so it takes no lock and must not allocate.
//
//tracevm:hotpath
func (ec *epochCoordinator) release(sh *workerShard, set *shardSet, delta int64) {
	sh.mu.Unlock()
	if delta > 0 && set.persist && ec.snaps != nil {
		ec.snaps.noteDirty(set.key, delta)
	}
	set.dirty.Store(true)
}

// merge absorbs every shard's current history into a fresh profiler,
// re-derives states (signalling the merged cache, which promotes globally
// hot traces), and publishes the export as the set's merged view. With wait
// false, shards locked by an in-flight run are skipped — their release marks
// the set dirty again — so a merge never stalls behind a long run; drain-time
// merges pass wait true, when every worker has already exited. Shards built
// before the set's latest PUT are skipped too, and a merge that a PUT
// overtook publishes nothing. Returns nil when nothing was published, and
// leaves the set dirty then.
func (ec *epochCoordinator) merge(set *shardSet, wait bool) (snap *snapshot.Snapshot) {
	// Cleared before the shards are read, so a release landing during the
	// merge marks the set dirty again for the next reader.
	set.dirty.Store(false)
	defer func() {
		if snap == nil {
			set.dirty.Store(true)
		}
	}()
	merged, err := core.NewProfiler(set.params, ec.conf, set.hints, set.numBlocks)
	if err != nil {
		return nil
	}
	if set.prover != nil {
		// Traces the merged cache promotes carry guard proofs too — they
		// seed fresh shards and the snapshot writer serializes them.
		merged.SetProver(set.prover)
	}
	set.mu.Lock()
	gen := set.gen
	set.mu.Unlock()
	absorbed := 0
	for _, sh := range set.shards {
		if wait {
			sh.mu.Lock()
		} else if !sh.mu.TryLock() {
			continue
		}
		if sh.prof != nil && sh.gen == gen && sh.prof.Seeded() {
			if _, err := merged.Absorb(sh.prof); err == nil {
				absorbed++
			}
		}
		sh.mu.Unlock()
	}
	if absorbed == 0 {
		return nil
	}
	// Crash point: shard history absorbed but the merged view not yet
	// published — recovery must tolerate dying mid-merge with the previous
	// epoch's state still current.
	crash.Here(crash.PointEpochMerge)
	merged.DeriveStates()
	snap = merged.ExportSnapshot(set.key, set.name)
	set.mu.Lock()
	if set.gen != gen {
		set.mu.Unlock()
		return nil
	}
	set.merged = snap
	set.mu.Unlock()
	ec.merges.Add(1)
	ec.shardsMerged.Add(int64(absorbed))
	ec.ring.Emit(obs.Event{
		Type: obs.EvEpochMerge,
		X:    obs.NoID, Y: obs.NoID, TraceID: obs.NoID,
		Val: int64(merged.Graph.NumNodes()), Program: set.name,
	})
	return snap
}

// exportForCommit gives the snapshot writer and GET /v1/snapshot a fresh
// merge of a program's first set. Nil when the program has no set or the
// merge absorbed no shard: an older merged view is never handed out, so the
// writer keeps the program's delta for its next cycle instead of committing
// stale state. wait semantics as in merge: the final drain commit waits for
// (quiescent) shards, periodic commits skip busy ones.
func (ec *epochCoordinator) exportForCommit(key string, wait bool) *snapshot.Snapshot {
	ec.mu.Lock()
	sets := ec.sets[key]
	ec.mu.Unlock()
	if len(sets) == 0 {
		return nil
	}
	return ec.merge(sets[0], wait)
}

// install makes an uploaded snapshot the merged view of the program's set
// under the same parameters, if one exists; that set's shards rebuild from
// it on their next run.
func (ec *epochCoordinator) install(snap *snapshot.Snapshot) {
	ec.mu.Lock()
	set := ec.find(snap.ProgramKey, snap.Params)
	ec.mu.Unlock()
	if set == nil {
		return
	}
	set.mu.Lock()
	set.merged = snap
	set.gen++
	set.mu.Unlock()
}

// gauges reports (programs with a shard set, live shards, sets holding
// merged state) for Stats.
func (ec *epochCoordinator) gauges() (programs, shards, merged int) {
	ec.mu.Lock()
	programs = len(ec.sets)
	var all []*shardSet
	for _, sets := range ec.sets {
		all = append(all, sets...)
	}
	ec.mu.Unlock()
	for _, set := range all {
		set.mu.Lock()
		if set.merged != nil {
			merged++
		}
		set.mu.Unlock()
	}
	return programs, int(ec.liveShards.Load()), merged
}
