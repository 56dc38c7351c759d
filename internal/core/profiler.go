package core

import (
	"repro/internal/analysis"
	"repro/internal/obs"
	"repro/internal/profile"
	"repro/internal/snapshot"
	"repro/internal/stats"
)

// Profiler is a persistent profiling pair — one BCG graph and one trace
// cache, permanently bound to each other — that outlives any single session.
// The serving layer gives every worker a private Profiler per program (a
// shard): sessions attach to it via SessionOptions.Profiler, so learned
// state, arenas and the dense node table survive across requests and a warmed
// worker relearns nothing. An epoch coordinator later merges shards through
// Absorb/DeriveStates into a fresh Profiler whose cache promotes only the
// globally hot traces.
//
// A Profiler is single-threaded like the graph it wraps: the owner must
// serialize runs against it (the serving layer holds a per-shard lock for
// the duration of each run).
type Profiler struct {
	params profile.Params
	Graph  *profile.Graph
	Cache  *Cache
}

// NewProfiler builds an empty profiling pair: cache and graph constructed
// and bound to each other, the graph's node table pre-sized to numBlocks so
// the hot loop never grows its outer level, and static hints applied.
// NewSession builds its private pair through here too. params' zero value
// means DefaultParams; conf carries the trace-cache budgets.
func NewProfiler(params profile.Params, conf Config, hints *analysis.Hints, numBlocks int) (*Profiler, error) {
	if params == (profile.Params{}) {
		params = profile.DefaultParams()
	}
	ctr := &stats.Counters{}
	cache := NewCache(conf, ctr)
	g, err := profile.New(params, ctr, cache)
	if err != nil {
		return nil, err
	}
	cache.Bind(g)
	if numBlocks > 0 {
		g.Reserve(numBlocks)
	}
	if hints != nil {
		g.SetStaticHints(hints.UniqueBlocks())
		cache.SetLoopHeaders(hints.LoopHeaders())
	}
	return &Profiler{params: params, Graph: g, Cache: cache}, nil
}

// Params returns the profiler's parameters; sessions attaching to the
// profiler run under these, never under their own.
func (p *Profiler) Params() profile.Params { return p.params }

// SetCounters rebinds both halves to a fresh counter record, so each run
// through a reused profiler accounts against its own session's counters.
func (p *Profiler) SetCounters(ctr *stats.Counters) {
	p.Graph.SetCounters(ctr)
	p.Cache.SetCounters(ctr)
}

// SetSink attaches an observability sink to both halves (nil detaches).
func (p *Profiler) SetSink(s obs.Sink) {
	p.Graph.SetSink(s)
	p.Cache.SetSink(s)
}

// SetProver attaches a static guard oracle to the cache: traces the shard
// builds from here on carry proofs of never-firing side-exit guards.
func (p *Profiler) SetProver(gp GuardProver) { p.Cache.SetProver(gp) }

// Seeded reports whether the profiler holds any learned state yet; a fresh
// shard seeds from a warm snapshot only while this is false.
func (p *Profiler) Seeded() bool { return p.Graph.NumNodes() > 0 }

// ExportSnapshot captures the profiler's learned state — the BCG, the live
// trace set, and the loop-header anchors — keyed to a program identity. The
// result aliases nothing in the profiler.
func (p *Profiler) ExportSnapshot(programKey, programName string) *snapshot.Snapshot {
	return &snapshot.Snapshot{
		ProgramKey:  programKey,
		Program:     programName,
		Params:      p.params,
		Nodes:       p.Graph.Export(),
		Traces:      p.Cache.ExportTraces(),
		LoopHeaders: p.Cache.LoopHeaders(),
	}
}

// Absorb sums a source shard's learned history into this profiler; states
// are re-derived by DeriveStates once every shard is in. The source is read,
// never modified. Parameters must match.
func (p *Profiler) Absorb(src *Profiler) (int, error) {
	return p.Graph.Absorb(src.Graph)
}

// DeriveStates classifies the merged history and signals this profiler's
// own trace cache, which builds (promotes) traces only where the combined
// evidence clears the completion threshold. Call after the last Absorb.
func (p *Profiler) DeriveStates() { p.Graph.DeriveStates() }
