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

// This file is the serving layer's side of multicore scale-out: per-worker
// BCG shards with epoch merge (Doppel-style phase reconciliation).
//
// Under the per-request model every profiled run built a fresh profiler and,
// with persistence on, exported the whole graph afterwards through a global
// store mutex — the scaling bottleneck the ROADMAP's open item 2 names.
// Here every worker owns a private core.Profiler per program (a shard):
// runs take exactly one uncontended lock, the dispatch hot path touches only
// worker-local arenas, and nothing is exported per run. At phase boundaries
// — every Config.EpochRuns profiled runs of a program, on a breaker trip,
// when the snapshot writer wants to commit, or at drain — the coordinator
// merges the shards' decayed counters into a fresh profiler, re-derives
// node states/signals/start-delays from the combined history (so the merged
// trace cache promotes only globally hot traces), and publishes the result:
// it seeds new shards, answers GET /v1/snapshot, and is what the snapshot
// writer serializes — never an individual shard.

// workerShard is one worker's private profiler for one program. The mutex is
// held for the duration of a run (workers never share a shard, so it is
// uncontended except against a concurrent epoch merge, which only reads).
type workerShard struct {
	mu   sync.Mutex
	prof *core.Profiler
	runs int64 // profiled runs through this shard
}

// shardSet is one program's sharding state: a fixed shard slot per worker
// plus the latest merged view.
type shardSet struct {
	key, name string
	params    profile.Params
	hints     *analysis.Hints
	prover    core.GuardProver // static guard oracle; stamps shard-built traces
	numBlocks int

	// Tier-2 compilation state. cfgp/facts feed each shard's compile
	// environment; compiled is the program-wide memo of lowered trace
	// programs, shared by every shard so a block sequence compiles at most
	// once and the compiled form is per-merged-view — a trace rebuilt from
	// the merged snapshot in any shard rebinds to the same immutable
	// Program. Nil when the trace-cache config leaves CompileTraces off.
	cfgp     *cfg.ProgramCFG
	facts    *valueflow.Facts
	compiled *core.CompiledStore

	shards []*workerShard

	mu             sync.Mutex
	merged         *snapshot.Snapshot // latest merged view; seeds fresh shards
	epoch          int64              // completed merges for this program
	runsSinceMerge int64              // releases since one last claimed an epoch
}

// epochCoordinator owns every program's shard set and performs the merges.
type epochCoordinator struct {
	workers   int
	epochRuns int64
	conf      core.Config // trace-cache budgets for shard and merged profilers
	ring      *obs.Ring
	snaps     *snapStore // may be nil; consulted for first-sight warm seeds

	mu   sync.Mutex
	sets map[string]*shardSet

	// Lifetime accounting, read by Stats.
	merges       atomic.Int64
	shardsMerged atomic.Int64
	liveShards   atomic.Int64
}

func newEpochCoordinator(workers int, epochRuns int64, conf core.Config, ring *obs.Ring, snaps *snapStore) *epochCoordinator {
	return &epochCoordinator{
		workers:   workers,
		epochRuns: epochRuns,
		conf:      conf,
		ring:      ring,
		snaps:     snaps,
		sets:      make(map[string]*shardSet),
	}
}

// acquire locks and returns workerID's shard for the program, creating the
// set on first sight. Returns nils when the request's profiler parameters
// differ from the ones the program's shards were built with — such requests
// fall back to the isolated per-request path rather than pollute shards
// learned under other parameters.
func (ec *epochCoordinator) acquire(comp *Compiled, params profile.Params, workerID int) (*workerShard, *shardSet) {
	ec.mu.Lock()
	set := ec.sets[comp.Key]
	if set == nil {
		set = &shardSet{
			key:    comp.Key,
			name:   comp.Name,
			params: params,
			hints:  comp.Hints,
			shards: make([]*workerShard, ec.workers),
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
		ec.sets[comp.Key] = set
	}
	ec.mu.Unlock()
	if set.params != params || workerID < 0 || workerID >= len(set.shards) {
		return nil, nil
	}
	sh := set.shards[workerID]
	sh.mu.Lock()
	return sh, set
}

// newShard builds (and installs) the profiler for a locked, empty shard.
func (ec *epochCoordinator) newShard(sh *workerShard, set *shardSet) (*core.Profiler, error) {
	prof, err := core.NewProfiler(set.params, ec.conf, set.hints, set.numBlocks)
	if err != nil {
		return nil, err
	}
	if set.prover != nil {
		prof.SetProver(set.prover)
	}
	if set.compiled != nil {
		prof.EnableCompile(set.cfgp, set.facts, set.compiled)
	}
	sh.prof = prof
	ec.liveShards.Add(1)
	return prof, nil
}

// warmSeed returns the snapshot a fresh shard should seed from: the latest
// merged view if one exists, else the persistence store's warm snapshot for
// the program (which probes disk on first sight). Nil means cold start. The
// caller re-checks params before applying, exactly like the legacy path.
func (ec *epochCoordinator) warmSeed(set *shardSet) *snapshot.Snapshot {
	set.mu.Lock()
	m := set.merged
	set.mu.Unlock()
	if m != nil {
		return m
	}
	if ec.snaps != nil {
		return ec.snaps.lookup(set.key, set.name)
	}
	return nil
}

// discard drops a locked shard's profiler (after a panicking run left it in
// an unknown state); the next run rebuilds from the merged view.
func (ec *epochCoordinator) discard(sh *workerShard) {
	if sh.prof != nil {
		sh.prof = nil
		ec.liveShards.Add(-1)
	}
}

// release unlocks a shard after a run and, when the program's epoch quota is
// reached, performs the merge. The merging request pays the (amortized 1 in
// EpochRuns) phase-boundary cost; the dispatch hot path never does. The
// quota check itself runs after every profiled request, so it must not
// allocate (the merge it occasionally triggers is the sanctioned cold path).
// The quota is reset here, under the lock that read it, and nowhere else:
// releases landing while the merge runs count toward the next epoch instead
// of each seeing the same full quota and merging again.
//
//tracevm:hotpath
func (ec *epochCoordinator) release(sh *workerShard, set *shardSet) {
	sh.runs++
	sh.mu.Unlock()
	set.mu.Lock()
	set.runsSinceMerge++
	due := set.runsSinceMerge >= ec.epochRuns
	if due {
		set.runsSinceMerge = 0
	}
	set.mu.Unlock()
	if due {
		ec.merge(set, false)
	}
}

// merge absorbs every shard's current history into a fresh profiler,
// re-derives states (signalling the merged cache, which promotes globally
// hot traces), and publishes the export as the program's merged view. With
// wait false, shards locked by an in-flight run are skipped — their learning
// lands next epoch — so a merge never stalls behind a long run; drain-time
// merges pass wait true, when every worker has already exited. Returns nil
// when nothing was absorbed.
func (ec *epochCoordinator) merge(set *shardSet, wait bool) *snapshot.Snapshot {
	merged, err := core.NewProfiler(set.params, ec.conf, set.hints, set.numBlocks)
	if err != nil {
		return nil
	}
	if set.prover != nil {
		// Traces the merged cache promotes carry guard proofs too — they
		// seed fresh shards and the snapshot writer serializes them.
		merged.SetProver(set.prover)
	}
	absorbed := 0
	for _, sh := range set.shards {
		if wait {
			sh.mu.Lock()
		} else if !sh.mu.TryLock() {
			continue
		}
		if sh.prof != nil && sh.prof.Seeded() {
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
	snap := merged.ExportSnapshot(set.key, set.name)
	set.mu.Lock()
	set.merged = snap
	set.epoch++
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

// mergeProgram forces an epoch boundary for one program — the breaker-trip
// hook: when churn trips the breaker mid-epoch the program demotes to plain
// dispatch, so without this merge the shards' tracing-phase learning would
// sit stranded (unmerged, uncommittable) for as long as the breaker stays
// open.
func (ec *epochCoordinator) mergeProgram(key string) {
	ec.mu.Lock()
	set := ec.sets[key]
	ec.mu.Unlock()
	if set != nil {
		ec.merge(set, false)
	}
}

// exportForCommit gives the snapshot writer the freshest merged view of a
// program at commit time — the writer's commit is itself a phase boundary.
// Returns nil for programs with no shard set (legacy-path entries, bare
// installs) or nothing absorbed; the writer then falls back to whatever
// warm snapshot it already holds. wait semantics as in merge: the final
// drain commit waits for (quiescent) shards, periodic commits skip busy
// ones.
func (ec *epochCoordinator) exportForCommit(key string, wait bool) *snapshot.Snapshot {
	ec.mu.Lock()
	set := ec.sets[key]
	ec.mu.Unlock()
	if set == nil {
		return nil
	}
	if snap := ec.merge(set, wait); snap != nil {
		return snap
	}
	set.mu.Lock()
	defer set.mu.Unlock()
	return set.merged
}

// gauges reports (programs with a shard set, live shards) for Stats.
func (ec *epochCoordinator) gauges() (programs, shards int) {
	ec.mu.Lock()
	programs = len(ec.sets)
	ec.mu.Unlock()
	return programs, int(ec.liveShards.Load())
}
