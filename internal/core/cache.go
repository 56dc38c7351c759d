// Package core implements the paper's trace cache and trace construction
// algorithm (§4.2): the component that turns branch-correlation-graph state
// changes into a stable set of dispatchable traces.
//
// The cache listens for profiler signals. On a signal it (1) retires every
// cached trace invalidated by the changed branch, (2) finds all possible
// trace entry points by backtracking in the branch correlation graph along
// strongly correlated edges, (3) follows the path of maximum likelihood
// forward from each entry point until it meets a weakly correlated branch or
// a branch already on the path (a loop, which is unrolled once and processed
// first), and (4) cuts the path into traces whose expected completion
// probability — the product of the branch correlations along the trace —
// stays at or above the completion threshold. Finished block sequences are
// hash-consed, so re-deriving an existing trace relinks it instead of
// constructing a duplicate, and every node touched is acknowledged to the
// profiler to prevent cascades of state-change signals.
package core

import (
	"fmt"
	"sort"

	"repro/internal/cfg"
	"repro/internal/faultinject/crash"
	"repro/internal/obs"
	"repro/internal/profile"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Config tunes the trace constructor beyond the profiler parameters.
type Config struct {
	// MinBlocks is the minimum trace length worth dispatching; shorter
	// candidates are discarded (default 2 — a one-block trace is exactly an
	// ordinary block dispatch).
	MinBlocks int
	// MaxBlocks caps trace length (default 64).
	MaxBlocks int
	// MaxBacktrack bounds the entry-point search (default 4096 nodes).
	MaxBacktrack int
	// MaxTraces bounds the number of live traces; exceeding it evicts the
	// coldest traces (0 = unbounded). The trace being registered is exempt
	// from the eviction pass it triggers, so a budget of n may transiently
	// hold n+1 traces within one signal.
	MaxTraces int
	// MaxCachedBlocks bounds the total block count across live traces —
	// the cache's memory budget in the paper's unit of trace size
	// (0 = unbounded).
	MaxCachedBlocks int

	// CompileTraces is read by nothing.
	//
	// Deprecated: tier 2 was removed; kept only for benchmark/probes.go.
	CompileTraces bool
}

// DefaultConfig returns the standard constructor configuration.
func DefaultConfig() Config {
	return Config{MinBlocks: 2, MaxBlocks: 64, MaxBacktrack: 4096}
}

func (c *Config) fillDefaults() {
	d := DefaultConfig()
	if c.MinBlocks <= 0 {
		c.MinBlocks = d.MinBlocks
	}
	if c.MaxBlocks <= 0 {
		c.MaxBlocks = d.MaxBlocks
	}
	if c.MaxBacktrack <= 0 {
		c.MaxBacktrack = d.MaxBacktrack
	}
}

// Cache is the trace cache. It implements profile.Listener (receiving
// state-change signals) and trace.Source (serving the dispatch engine).
type Cache struct {
	conf  Config
	graph *profile.Graph
	ctr   *stats.Counters
	sink  obs.Sink // optional trace lifecycle event sink; never on the Lookup path

	ix     trace.Index                      // entry edge -> trace (dispatch-hot)
	byKey  map[string]*trace.Trace          // block sequence -> trace (hash-consing)
	byPair map[uint64]map[*trace.Trace]bool // block pair -> traces containing it
	regs   map[*trace.Trace]map[uint64]bool // trace -> its entry edges
	blocks int                              // total blocks across live traces
	nextID int

	// seeding marks registrations driven by SeedTraces (snapshot warm
	// start): they count as seeded, not built/reused, and emit no lifecycle
	// events — a warm start is restored state, not churn, and must not
	// demote the program in the serving layer's mode controller.
	seeding bool

	// prover, when set, stamps every newly built trace with static guard
	// proofs (trace.GuardProofs) at registration.
	prover GuardProver
}

// GuardProver proves side-exit guards of a block sequence dead: the result
// (length len(blocks)-1, or nil) claims per inter-block position that no
// execution following the trace can exit there. The interface is satisfied
// by *valueflow.GuardOracle; core depends only on the contract so the
// analysis layer stays optional. Implementations must be safe for
// concurrent use.
type GuardProver interface {
	ProveGuards(blocks []cfg.BlockID) []bool
}

// SetProver attaches the static guard oracle consulted when new traces are
// registered. Already registered traces are not re-proven; attach the
// prover before profiling starts (or before SeedTraces on a warm start).
func (c *Cache) SetProver(p GuardProver) { c.prover = p }

// NewCache creates an empty trace cache. Bind must be called with the
// profiler graph before the first signal arrives; the two-step construction
// exists because the graph takes its listener at creation.
func NewCache(conf Config, ctr *stats.Counters) *Cache {
	conf.fillDefaults()
	if ctr == nil {
		ctr = &stats.Counters{}
	}
	return &Cache{
		conf:   conf,
		ctr:    ctr,
		byKey:  make(map[string]*trace.Trace),
		byPair: make(map[uint64]map[*trace.Trace]bool),
		regs:   make(map[*trace.Trace]map[uint64]bool),
	}
}

// Bind attaches the profiler graph the cache reads correlations from.
func (c *Cache) Bind(g *profile.Graph) { c.graph = g }

// SetCounters rebinds the cache's counter sink. A cache reused across
// sessions (a worker shard's) is rebound to each run's fresh counters so
// per-request accounting stays exact. Never call during a run; nil rebinds
// to a discarded internal record.
func (c *Cache) SetCounters(ctr *stats.Counters) {
	if ctr == nil {
		ctr = &stats.Counters{}
	}
	c.ctr = ctr
}

// SetSink attaches an event sink; trace construction, reuse, retirement and
// eviction each emit a typed event. Call before the run; nil detaches.
func (c *Cache) SetSink(s obs.Sink) { c.sink = s }

// emit sends one trace lifecycle event when a sink is attached.
func (c *Cache) emit(typ obs.EventType, t *trace.Trace, val int64) {
	if c.sink == nil {
		return
	}
	c.sink.Emit(obs.Event{
		Type: typ,
		X:    obs.NoID, Y: obs.NoID,
		TraceID: int32(t.ID),
		Val:     val,
	})
}

// Config returns the constructor configuration.
func (c *Cache) Config() Config { return c.conf }

// Lookup implements trace.Source.
//
//tracevm:hotpath
func (c *Cache) Lookup(from, to cfg.BlockID) *trace.Trace {
	return c.ix.Lookup(from, to)
}

// Index exposes the dense entry-edge index; the dispatch engine uses it to
// bypass the interface call on its per-dispatch lookup
// (trace.IndexedSource).
func (c *Cache) Index() *trace.Index { return &c.ix }

// Reserve pre-sizes the entry-edge index for a program with numBlocks
// global block IDs.
func (c *Cache) Reserve(numBlocks int) { c.ix.Reserve(numBlocks) }

// NumTraces returns the number of live traces.
func (c *Cache) NumTraces() int { return len(c.regs) }

// CachedBlocks returns the total block count across live traces — the
// quantity Config.MaxCachedBlocks budgets.
func (c *Cache) CachedBlocks() int { return c.blocks }

// Traces returns the live traces, ordered by ID for determinism.
func (c *Cache) Traces() []*trace.Trace {
	out := make([]*trace.Trace, 0, len(c.regs))
	for t := range c.regs {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// OnSignal implements profile.Listener: the profiler detected that a
// branch's state or maximally correlated successor changed.
func (c *Cache) OnSignal(sig profile.Signal) {
	if c.graph == nil {
		return
	}
	c.ctr.RebuildRequests++
	n := sig.Node

	// Step 0: retire traces that relied on the old behaviour of this branch.
	c.invalidatePair(n.X, n.Y)

	// Step 1: generate the list of all possible trace entry points which
	// may be affected, by backtracking along strongly correlated edges.
	entries := c.findEntries(n)

	// Steps 2 and 3, interleaved: follow the path of maximum likelihood
	// from each start point, cut it into traces, and reconstruct newly
	// discovered cache entries.
	for _, e := range entries {
		c.buildFrom(e)
	}
}

// invalidatePair retires every trace whose block sequence (including the
// entry edge) contains the transition (x, y) and whose expected completion,
// re-estimated against the current graph, no longer clears the threshold.
func (c *Cache) invalidatePair(x, y cfg.BlockID) {
	set := c.byPair[trace.EdgeKey(x, y)]
	if len(set) == 0 {
		return
	}
	var doomed []*trace.Trace
	for t := range set {
		if !c.stillValid(t) {
			doomed = append(doomed, t)
		}
	}
	for _, t := range doomed {
		c.retire(t)
	}
}

// stillValid re-estimates a trace's completion probability from the current
// graph state for at least one of its registered entry edges.
func (c *Cache) stillValid(t *trace.Trace) bool {
	for edge := range c.regs[t] {
		from := cfg.BlockID(edge >> 32)
		if p, ok := c.pathProbability(from, t.Blocks); ok && p >= c.graph.Params().Threshold {
			return true
		}
	}
	return false
}

// pathProbability computes the expected completion probability of the block
// sequence entered via the edge (from, blocks[0]): the product of the branch
// correlations along the chain of branch contexts, "multiplying all the edge
// weights together and dividing by the product of the node weights" (§3.7).
func (c *Cache) pathProbability(from cfg.BlockID, blocks []cfg.BlockID) (float64, bool) {
	n := c.graph.Node(from, blocks[0])
	if n == nil || !n.State.Correlated() {
		return 0, false
	}
	p := 1.0
	for i := 1; i < len(blocks); i++ {
		e := n.EdgeTo(blocks[i])
		if e == nil {
			return 0, false
		}
		p *= e.Correlation()
		n = e.To
		if n == nil {
			return 0, false
		}
		if i < len(blocks)-1 && !n.State.Correlated() {
			return 0, false
		}
	}
	return p, true
}

// findEntries backtracks from the signalled node along strongly correlated
// in-edges and returns the roots: the branch contexts likely to eventually
// execute the modified branch that no correlated branch leads into.
// "Generally there is only one element" (§4.2).
func (c *Cache) findEntries(n *profile.Node) []*profile.Node {
	visited := map[*profile.Node]bool{n: true}
	queue := []*profile.Node{n}
	var roots []*profile.Node
	for len(queue) > 0 && len(visited) <= c.conf.MaxBacktrack {
		cur := queue[0]
		queue = queue[1:]
		if c.ix.LoopHeader(cur.Y) {
			// Static dataflow marked Y as a loop header: stop backtracking
			// here so the trace entry aligns with the loop boundary instead
			// of wandering into the code before the loop.
			roots = append(roots, cur)
			continue
		}
		strong := cur.StrongIn()
		if len(strong) == 0 {
			roots = append(roots, cur)
			continue
		}
		advanced := false
		for _, e := range strong {
			if !visited[e.Owner] {
				visited[e.Owner] = true
				queue = append(queue, e.Owner)
				advanced = true
			}
		}
		if !advanced {
			// Every strong predecessor was already visited: a cycle with no
			// external entry; treat this node as a root so the loop is
			// still (re)processed.
			roots = append(roots, cur)
		}
	}
	// Deterministic order keeps runs reproducible.
	sort.Slice(roots, func(i, j int) bool {
		if roots[i].X != roots[j].X {
			return roots[i].X < roots[j].X
		}
		return roots[i].Y < roots[j].Y
	})
	return roots
}

// buildFrom follows the maximum-likelihood path from an entry node, handles
// loops, cuts the path into traces, and registers them.
func (c *Cache) buildFrom(entry *profile.Node) {
	if !entry.State.Correlated() {
		entry.Acknowledge()
		return
	}

	// Follow the path of maximum likelihood until it discovers a branch
	// already in the trace or a weakly correlated branch.
	path := []*profile.Node{entry}
	index := map[*profile.Node]int{entry: 0}
	loopStart := -1
	cur := entry
	for len(path) < 2*c.conf.MaxBlocks {
		if !cur.State.Correlated() || cur.Best == nil {
			break
		}
		next := cur.Best.To
		if next == nil {
			break
		}
		if j, seen := index[next]; seen {
			loopStart = j
			break
		}
		index[next] = len(path)
		path = append(path, next)
		cur = next
	}

	for _, n := range path {
		n.Acknowledge()
	}

	if loopStart >= 0 {
		// The path terminates in a loop: process the loop first — unroll it
		// once and pass it to the trace cache — then cut the remaining
		// prefix into traces.
		loop := path[loopStart:]
		unrolled := append(append([]*profile.Node{}, loop...), loop...)
		c.cutAndRegister(unrolled)
		if loopStart > 0 {
			c.cutAndRegister(path[:loopStart])
		}
		return
	}
	c.cutAndRegister(path)
}

// cutAndRegister linearly cuts a node path into traces whose cumulative
// completion probability stays at or above the completion threshold, then
// registers each (§4.2's block parsing mechanism).
func (c *Cache) cutAndRegister(path []*profile.Node) {
	threshold := c.graph.Params().Threshold
	i := 0
	for i < len(path) {
		start := i
		prob := 1.0
		// Extend while adding the next node keeps completion likely.
		for i+1 < len(path) && i+1-start < c.conf.MaxBlocks {
			step := path[i].Best
			if step == nil || step.To != path[i+1] {
				break
			}
			p := prob * step.Correlation()
			if p < threshold {
				break
			}
			prob = p
			i++
		}
		c.register(path[start:i+1], prob)
		i++
	}
}

// register hash-conses and registers one trace candidate whose node chain is
// nodes[0..]; the entry edge is (nodes[0].X, nodes[0].Y) and the block
// sequence is the Y of each node.
func (c *Cache) register(nodes []*profile.Node, prob float64) {
	if len(nodes) < c.conf.MinBlocks {
		return
	}
	blocks := make([]cfg.BlockID, len(nodes))
	for i, n := range nodes {
		blocks[i] = n.Y
	}
	entryEdge := trace.EdgeKey(nodes[0].X, nodes[0].Y)

	key := trace.Key(blocks)
	t := c.byKey[key]
	if t == nil {
		t = trace.New(c.nextID, blocks, prob)
		if c.prover != nil {
			t.GuardProofs = c.prover.ProveGuards(blocks)
		}
		c.nextID++
		c.byKey[key] = t
		c.blocks += len(blocks)
		if !c.seeding {
			c.ctr.TracesBuilt++
			c.emit(obs.EvTraceBuilt, t, int64(len(blocks)))
		}
		for i := 1; i < len(blocks); i++ {
			c.indexPair(trace.EdgeKey(blocks[i-1], blocks[i]), t)
		}
	} else if !c.seeding {
		c.ctr.TracesReused++
		c.emit(obs.EvTraceReused, t, int64(len(blocks)))
	}

	// Link the entry edge, replacing any previous trace registered there.
	if old := c.ix.Set(nodes[0].X, nodes[0].Y, t); old != nil && old != t {
		c.unregisterEdge(old, entryEdge)
	}
	if c.regs[t] == nil {
		c.regs[t] = make(map[uint64]bool)
		// The entry-edge pair also participates in invalidation.
	}
	if !c.regs[t][entryEdge] {
		c.regs[t][entryEdge] = true
		c.indexPair(entryEdge, t)
	}
	c.enforceBudget(t)
}

func (c *Cache) indexPair(pair uint64, t *trace.Trace) {
	set := c.byPair[pair]
	if set == nil {
		set = make(map[*trace.Trace]bool)
		c.byPair[pair] = set
	}
	set[t] = true
}

func (c *Cache) unindexPair(pair uint64, t *trace.Trace) {
	if set := c.byPair[pair]; set != nil {
		delete(set, t)
		if len(set) == 0 {
			delete(c.byPair, pair)
		}
	}
}

// unregisterEdge removes one entry-edge registration; a trace with no
// remaining registrations is retired.
func (c *Cache) unregisterEdge(t *trace.Trace, edge uint64) {
	if regs := c.regs[t]; regs != nil {
		delete(regs, edge)
		c.unindexPair(edge, t)
		if len(regs) == 0 {
			c.retire(t)
		}
	}
}

// retire removes a trace from every index and marks it dead.
func (c *Cache) retire(t *trace.Trace) {
	for edge := range c.regs[t] {
		from, to := cfg.BlockID(edge>>32), cfg.BlockID(edge)
		if c.ix.Lookup(from, to) == t {
			c.ix.Delete(from, to)
		}
		c.unindexPair(edge, t)
	}
	delete(c.regs, t)
	delete(c.byKey, trace.Key(t.Blocks))
	c.blocks -= len(t.Blocks)
	for i := 1; i < len(t.Blocks); i++ {
		c.unindexPair(trace.EdgeKey(t.Blocks[i-1], t.Blocks[i]), t)
	}
	t.Retired = true
	c.ctr.TracesRetired++
	c.emit(obs.EvTraceRetired, t, int64(len(t.Blocks)))
}

// overBudget reports whether either cache budget is currently exceeded.
func (c *Cache) overBudget() bool {
	return (c.conf.MaxTraces > 0 && len(c.regs) > c.conf.MaxTraces) ||
		(c.conf.MaxCachedBlocks > 0 && c.blocks > c.conf.MaxCachedBlocks)
}

// enforceBudget evicts the coldest traces until the cache fits its budgets
// again. keep — the trace whose registration triggered the pass — is exempt,
// so a single oversized trace cannot evict itself into a rebuild loop.
func (c *Cache) enforceBudget(keep *trace.Trace) {
	if !c.overBudget() {
		return
	}
	evicted := false
	for c.overBudget() {
		victim := c.coldest(keep)
		if victim == nil {
			break
		}
		c.evict(victim)
		evicted = true
	}
	if evicted {
		c.ctr.BudgetPressure++
	}
}

// heat scores a trace for eviction: its actual dispatch count plus the
// decayed execution counters of its entry branch contexts, so a trace in a
// currently-hot region outranks one whose region went cold even if neither
// has been dispatched yet. Reusing the BCG node counters keeps the policy
// free: the profiler already maintains the recency signal.
func (c *Cache) heat(t *trace.Trace) int64 {
	h := t.Entered
	if c.graph != nil {
		for edge := range c.regs[t] {
			if n := c.graph.Node(cfg.BlockID(edge>>32), cfg.BlockID(edge)); n != nil {
				h += int64(n.Total)
			}
		}
	}
	return h
}

// coldest returns the live trace with the lowest heat (ties broken toward
// the oldest ID, deterministically), excluding keep; nil if none qualifies.
func (c *Cache) coldest(keep *trace.Trace) *trace.Trace {
	var victim *trace.Trace
	var vh int64
	for t := range c.regs {
		if t == keep {
			continue
		}
		h := c.heat(t)
		if victim == nil || h < vh || (h == vh && t.ID < victim.ID) {
			victim, vh = t, h
		}
	}
	return victim
}

// evict retires a trace for budget reasons. The entry branch contexts are
// un-acknowledged first so the profiler re-signals if the region is hot
// again and the trace is rebuilt on demand — eviction sheds memory, not the
// ability to trace.
func (c *Cache) evict(t *trace.Trace) {
	c.emit(obs.EvTraceEvicted, t, c.heat(t))
	if c.graph != nil {
		for edge := range c.regs[t] {
			if n := c.graph.Node(cfg.BlockID(edge>>32), cfg.BlockID(edge)); n != nil {
				n.Unacknowledge()
			}
		}
	}
	c.retire(t)
	c.ctr.TracesEvicted++
	// Crash point: the victim is gone but the budget pass may not be done —
	// eviction is pure memory shedding, so dying here must lose nothing.
	crash.Here(crash.PointEviction)
}

// Dump renders the cache contents for diagnostics.
func (c *Cache) Dump() string {
	s := fmt.Sprintf("trace cache: %d traces\n", c.NumTraces())
	for _, t := range c.Traces() {
		s += "  " + t.String() + "\n"
	}
	return s
}
