// Package profile implements the paper's branch correlation graph (BCG)
// profiler (§3.5, §4.1).
//
// The BCG is "effectively a depth one per address history table": for every
// pair of basic blocks (X, Y) executed in sequence there is a node N_XY with
// a 16-bit execution counter and a state tag, and for every observed triple
// (X, Y, Z) a directed edge E_XYZ from N_XY to N_YZ whose 16-bit counter
// records how often branch (Y, Z) followed branch (X, Y). Counters are kept
// current through periodic exponential decay: every DecayInterval (256)
// executions of a node, all its counters shift right one bit, which
// preserves the relative ratios while doubling the weight of recent
// behaviour. During decay the node's state and maximally correlated
// successor are re-evaluated; if either changed, the profiler signals the
// trace cache.
//
// The profiler attaches to the interpreter's block dispatch through the
// vm.DispatchHook interface. Its per-dispatch fast path mirrors the paper's
// inline cache: the current branch context caches the successor believed
// most likely, and a matching dispatch costs two comparisons, two pointer
// loads and an increment.
package profile

import (
	"fmt"
	"sort"

	"repro/internal/cfg"
	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/trace"
)

// State is a node's correlation summary, "in descending degree of
// correlation: unique, strongly correlated, weakly correlated, and newly
// created".
type State uint8

const (
	// StateNew: the start-state delay has not yet expired; the branch is
	// still considered rare and may not appear in traces.
	StateNew State = iota
	// StateWeak: the best successor's correlation is below the threshold.
	StateWeak
	// StateStrong: the best successor's correlation is at or above the
	// threshold, but other successors have been observed recently.
	StateStrong
	// StateUnique: a single successor in the (decayed) history.
	StateUnique
)

func (s State) String() string {
	switch s {
	case StateNew:
		return "new"
	case StateWeak:
		return "weak"
	case StateStrong:
		return "strong"
	case StateUnique:
		return "unique"
	}
	return "invalid"
}

// Correlated reports whether the state allows the node's best edge to be
// followed during trace construction.
func (s State) Correlated() bool { return s == StateStrong || s == StateUnique }

// Edge is a branch correlation E_XYZ: "given that the last branch taken was
// (X, Y), branch (Y, Z) followed Count times (decayed)". Edges are allocated
// from the graph's chunked arena and recycled through a free list when decay
// prunes them, so steady-state profiling performs no heap allocation.
type Edge struct {
	Owner *Node // N_XY
	To    *Node // N_YZ
	Z     cfg.BlockID
	Count uint16
}

// Correlation returns Count / Owner.Total, the conditional probability
// estimate for this successor.
func (e *Edge) Correlation() float64 {
	if e.Owner.Total == 0 {
		return 0
	}
	return float64(e.Count) / float64(e.Owner.Total)
}

// inlineEdges is the per-node successor capacity before the edge list spills
// to the heap. Almost every branch context has one or two successors (the
// whole premise of trace construction), so four pointers inline keeps the
// common case free of separate edge-list allocations.
const inlineEdges = 4

// Node is a branch context N_XY. Field order is deliberate: everything the
// per-dispatch fast path touches (Y, Best, Total, the countdowns, State)
// and the trace lookup that follows it (X, Y, Entry) lives in the node's
// first cache line; the spillable edge lists and the inline backing arrays
// follow.
type Node struct {
	X, Y cfg.BlockID

	// Best is the inline-cached most likely successor edge.
	Best *Edge

	// Total is the decayed execution counter; the invariant
	// Total == Σ edge.Count holds at all times.
	Total uint16
	// State is the current correlation summary.
	State State
	// ackState/ackBest are the last (state, best successor) acknowledged by
	// the trace cache; a signal is raised only when the evaluation diverges
	// from them, which prevents cascades of identical signals (§4.2).
	ackState State
	// startDelay counts down executions until the node leaves StateNew.
	startDelay int32
	// untilDecay counts down executions until the next periodic decay.
	untilDecay uint32
	ackBest    cfg.BlockID

	// Entry is the trace the cache registered on the dispatch edge X→Y, or
	// nil: the BCG node is the trace cache's entry index.
	Entry *trace.Trace

	// Edges are the observed successor correlations, sorted by Z. Edges[0]
	// is not special; Best caches the argmax.
	Edges []*Edge
	// In lists edges arriving at this node (E_WXY for predecessors W);
	// trace construction backtracks along these.
	In []*Edge

	// ein/iin are the inline backing arrays Edges and In start on; append
	// spills them to the heap only when a node exceeds inlineEdges
	// successors or predecessors.
	ein [inlineEdges]*Edge
	iin [inlineEdges]*Edge
}

// Signal describes a state change delivered to the trace cache.
type Signal struct {
	Node     *Node
	OldState State
	NewState State
	OldBest  cfg.BlockID // NoBlock if none
	NewBest  cfg.BlockID
}

// Listener receives state-change signals. The trace cache implements it.
type Listener interface {
	OnSignal(sig Signal)
}

// Params are the algorithm's two tunables plus the decay interval.
type Params struct {
	// StartDelay is how many times a branch must execute before it can be
	// included in a trace (the paper evaluates 1, 64 and 4096).
	StartDelay int32
	// Threshold is the minimum completion probability of a trace and the
	// correlation bound separating strong from weak (0.95 .. 1.0).
	Threshold float64
	// DecayInterval is the number of node executions between decays
	// (paper: 256).
	DecayInterval uint32
}

// DefaultParams returns the configuration the paper found best: delay 64,
// threshold 97%, decay every 256 executions.
func DefaultParams() Params {
	return Params{StartDelay: 64, Threshold: 0.97, DecayInterval: 256}
}

// Validate checks parameter sanity.
func (p Params) Validate() error {
	if p.StartDelay < 0 {
		return fmt.Errorf("profile: negative start delay %d", p.StartDelay)
	}
	if p.Threshold <= 0 || p.Threshold > 1 {
		return fmt.Errorf("profile: threshold %v out of (0, 1]", p.Threshold)
	}
	if p.DecayInterval == 0 {
		return fmt.Errorf("profile: zero decay interval")
	}
	return nil
}

// nodeChunk/edgeChunk size the arena chunks nodes and edges are allocated
// from. Chunked allocation keeps node/edge creation at one heap allocation
// per chunk instead of one per element, and clusters hot nodes and edges on
// adjacent cache lines.
const (
	nodeChunk = 256
	edgeChunk = 512
)

// Graph is the branch correlation graph plus the dispatch-time profiler,
// and, through the traces its nodes hold, the dispatch engine's trace
// source.
//
// Node storage is a dense two-level index keyed by global block ID:
// rows[X][Y] is the node N_XY (or nil), so the (X, Y) lookup on the dispatch
// path is two slice indexings instead of a hashed map probe. Rows grow
// lazily and geometrically; Reserve pre-sizes the outer level when the
// program's block count is known up front.
type Graph struct {
	params   Params
	rows     [][]*Node
	all      []*Node // every node, in creation order
	ctr      *stats.Counters
	listener Listener

	// sink, when set, receives an EvNodeState event for every signal — the
	// observability mirror of the Listener. It is only touched on the
	// signalling slow path; the per-dispatch fast path never sees it.
	sink obs.Sink

	// cur is the current branch context — "the branch context pointer which
	// reflects the last branch taken by the program".
	cur *Node

	// nodeMem/edgeMem are the active arena chunks; edgeFree recycles edges
	// pruned by decay, so steady-state phase churn allocates nothing.
	nodeMem  []Node
	edgeMem  []Edge
	edgeFree []*Edge

	// hintUnique[y] marks block y as having exactly one static successor
	// (per the CFG dataflow pass): nodes N_XY for such a Y are created
	// pre-classified unique, skipping the start-state delay.
	hintUnique []bool
}

// New creates an empty graph. ctr and listener may be nil.
func New(params Params, ctr *stats.Counters, listener Listener) (*Graph, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if ctr == nil {
		ctr = &stats.Counters{}
	}
	return &Graph{
		params:   params,
		ctr:      ctr,
		listener: listener,
	}, nil
}

// Reserve pre-sizes the index's outer level for a program with numBlocks
// global block IDs, avoiding growth reallocations during the run. Optional;
// the index grows on demand without it.
func (g *Graph) Reserve(numBlocks int) {
	if numBlocks > len(g.rows) {
		rows := make([][]*Node, numBlocks)
		copy(rows, g.rows)
		g.rows = rows
	}
}

// SetStaticHints marks blocks with exactly one static CFG successor. A
// branch out of such a block can only ever be observed with one target, so
// its nodes are born unique: the first dispatch recording a correlation
// evaluates (and signals) immediately instead of waiting out the start
// delay. Dynamic evolution — decay, eviction, re-evaluation — then treats
// the node exactly like any organically classified one. Call before the
// profiled run; hints accumulate across calls.
func (g *Graph) SetStaticHints(unique []cfg.BlockID) {
	for _, y := range unique {
		if y == cfg.NoBlock {
			continue
		}
		if int(y) >= len(g.hintUnique) {
			grown := make([]bool, growTo(int(y)+1))
			copy(grown, g.hintUnique)
			g.hintUnique = grown
		}
		g.hintUnique[y] = true
	}
}

// SetSink attaches an event sink; every profiler signal additionally emits
// an obs.EvNodeState event describing the transition. Call before the run;
// nil detaches.
func (g *Graph) SetSink(s obs.Sink) { g.sink = s }

// Params returns the graph's configuration.
func (g *Graph) Params() Params { return g.params }

// NumNodes returns the number of branch contexts discovered so far.
func (g *Graph) NumNodes() int { return len(g.all) }

// Node returns the branch context for the pair (x, y), or nil.
func (g *Graph) Node(x, y cfg.BlockID) *Node {
	if int(x) < len(g.rows) {
		if row := g.rows[x]; int(y) < len(row) {
			return row[y]
		}
	}
	return nil
}

// Nodes calls fn for every node, in creation order.
func (g *Graph) Nodes(fn func(*Node)) {
	for _, n := range g.all {
		fn(n)
	}
}

// Lookup implements trace.Source: the trace registered on the dispatch edge
// from→to, or nil. Right after OnDispatch(from, to) the current context is
// N(from,to), so the common lookup reads a node already in cache; any
// other context falls back to the node table.
//
//tracevm:hotpath
func (g *Graph) Lookup(from, to cfg.BlockID) *trace.Trace {
	if n := g.cur; n != nil && n.X == from && n.Y == to {
		return n.Entry
	}
	if n := g.Node(from, to); n != nil {
		return n.Entry
	}
	return nil
}

// ResetContext clears the current branch context (used at run boundaries).
func (g *Graph) ResetContext() { g.cur = nil }

// OnDispatch implements vm.DispatchHook. from→to is the dispatch edge that
// just executed; the previous context (X, Y) satisfies Y == from.
//
//tracevm:hotpath
func (g *Graph) OnDispatch(from, to cfg.BlockID) {
	ctx := g.cur
	if ctx == nil || ctx.Y != from {
		// First dispatch of a run, or the context was invalidated: restart
		// from the node for this branch without recording a correlation.
		g.cur = g.getNode(from, to)
		return
	}

	// Fast path: the inline cache predicted this successor.
	if best := ctx.Best; best != nil && best.Z == to {
		bumpEdge(best)
		g.bumpNode(ctx)
		g.cur = best.To
		return
	}

	// Slow path: search the node's other correlations. Edges are sorted by
	// Z, so the scan stops at the insertion point on a miss.
	edges := ctx.Edges
	i := 0
	for ; i < len(edges); i++ {
		e := edges[i]
		if e.Z >= to {
			if e.Z == to {
				bumpEdge(e)
				g.bumpNode(ctx)
				g.cur = e.To
				return
			}
			break
		}
	}

	// Never seen in this context: construct a new branch correlation and
	// insert it into the branch context at its sorted position.
	e := g.allocEdge()
	//tracevm:allow-alloc (value copy into arena-backed edge, not a heap allocation)
	*e = Edge{Owner: ctx, To: g.getNode(from, to), Z: to, Count: 1}
	if len(ctx.Edges) == cap(ctx.Edges) {
		g.ctr.EdgeSpills++
	}
	ctx.Edges = append(ctx.Edges, nil) //tracevm:allow-alloc (cold: first sighting of a successor; spills past the inline array are counted)
	copy(ctx.Edges[i+1:], ctx.Edges[i:])
	ctx.Edges[i] = e
	e.To.In = append(e.To.In, e) //tracevm:allow-alloc (cold: same first-sighting path)
	g.ctr.EdgesCreated++
	if ctx.Best == nil {
		ctx.Best = e
	}
	if ctx.startDelay < 0 && len(ctx.Edges) == 1 {
		// A hint-seeded node just observed its first (and statically only)
		// successor: confirm the unique classification and signal the trace
		// cache now, with zero start-delay dispatches.
		g.evaluate(ctx)
	}
	g.bumpNode(ctx)
	g.cur = e.To
}

// allocEdge takes an edge from the free list or the arena.
func (g *Graph) allocEdge() *Edge {
	if n := len(g.edgeFree); n > 0 {
		e := g.edgeFree[n-1]
		g.edgeFree = g.edgeFree[:n-1]
		return e
	}
	if len(g.edgeMem) == cap(g.edgeMem) {
		g.edgeMem = make([]Edge, 0, edgeChunk)
	}
	g.edgeMem = g.edgeMem[:len(g.edgeMem)+1]
	return &g.edgeMem[len(g.edgeMem)-1]
}

// getNode returns (creating if necessary) the node N_xy.
func (g *Graph) getNode(x, y cfg.BlockID) *Node {
	if n := g.Node(x, y); n != nil {
		return n
	}
	if int(x) >= len(g.rows) {
		g.rows = append(g.rows, make([][]*Node, int(x)+1-len(g.rows))...)
	}
	if row := g.rows[x]; int(y) >= len(row) {
		grown := make([]*Node, growTo(int(y)+1))
		copy(grown, row)
		g.rows[x] = grown
	}

	if len(g.nodeMem) == cap(g.nodeMem) {
		g.nodeMem = make([]Node, 0, nodeChunk)
	}
	g.nodeMem = g.nodeMem[:len(g.nodeMem)+1]
	n := &g.nodeMem[len(g.nodeMem)-1]
	*n = Node{
		X:          x,
		Y:          y,
		State:      StateNew,
		startDelay: g.params.StartDelay,
		untilDecay: g.params.DecayInterval,
		ackState:   StateNew,
		ackBest:    cfg.NoBlock,
	}
	n.Edges = n.ein[:0:inlineEdges]
	n.In = n.iin[:0:inlineEdges]
	if n.startDelay <= 0 {
		// A delay of zero (or the paper's "delay 1" with its single
		// mandatory execution handled below) still starts in StateNew until
		// first evaluated.
		n.startDelay = 0
	}
	if int(y) < len(g.hintUnique) && g.hintUnique[y] {
		// Statically proven single-successor block: born unique, no start
		// delay. startDelay = -1 tags the node as hint-seeded so the first
		// recorded correlation evaluates immediately; ackState stays
		// StateNew so that evaluation signals the trace cache.
		n.State = StateUnique
		n.startDelay = -1
		g.ctr.NodesSeededUnique++
	}
	g.rows[x][y] = n
	g.all = append(g.all, n)
	g.ctr.NodesCreated++
	return n
}

// growTo rounds a row length up to the next power of two, bounding row
// reallocations to O(log numBlocks) per context.
func growTo(n int) int {
	c := 8
	for c < n {
		c <<= 1
	}
	return c
}

// bumpEdge increments a 16-bit correlation counter, saturating rather than
// wrapping; with the standard 256-dispatch decay the bound is never reached,
// but pathological decay intervals must not corrupt the ratios.
//
//tracevm:hotpath
func bumpEdge(e *Edge) {
	if e.Count < ^uint16(0) {
		e.Count++
	}
}

// bumpNode increments the node's execution counter, handles start-state
// expiry, and runs the periodic decay check.
//
//tracevm:hotpath
func (g *Graph) bumpNode(n *Node) {
	if n.Total < ^uint16(0) {
		n.Total++
	}
	if n.State == StateNew {
		if n.startDelay > 0 {
			n.startDelay--
		}
		if n.startDelay == 0 {
			// The branch has executed its delay quota: declare it "not
			// rare" and evaluate its correlation state.
			g.evaluate(n)
		}
	}
	n.untilDecay--
	if n.untilDecay == 0 {
		n.untilDecay = g.params.DecayInterval
		g.decay(n)
	}
}

// decay shifts every correlation one bit right, prunes forgotten successors,
// recomputes the node total from the invariant, and re-evaluates the state.
func (g *Graph) decay(n *Node) {
	g.ctr.DecayChecks++
	kept := n.Edges[:0]
	var total uint16
	for _, e := range n.Edges {
		e.Count >>= 1
		if e.Count == 0 {
			// Fully decayed: forget the correlation, unlink the in-edge,
			// and recycle the allocation.
			removeIn(e.To, e)
			if n.Best == e {
				n.Best = nil
			}
			*e = Edge{}
			g.edgeFree = append(g.edgeFree, e)
			continue
		}
		total += e.Count
		kept = append(kept, e)
	}
	n.Edges = kept
	n.Total = total
	if n.State != StateNew {
		g.evaluate(n)
	}
}

func removeIn(n *Node, e *Edge) {
	for i, x := range n.In {
		if x == e {
			n.In[i] = n.In[len(n.In)-1]
			n.In = n.In[:len(n.In)-1]
			return
		}
	}
}

// evaluate recomputes Best and State and signals the listener when the
// summary diverges from the last acknowledged one.
func (g *Graph) evaluate(n *Node) {
	oldState, oldBest := n.ackState, n.ackBest

	var best *Edge
	for _, e := range n.Edges {
		if best == nil || e.Count > best.Count {
			best = e
		}
	}
	n.Best = best

	switch {
	case best == nil:
		// All history decayed away; treat as weak with no prediction.
		n.State = StateWeak
	case len(n.Edges) == 1:
		n.State = StateUnique
	case float64(best.Count) >= g.params.Threshold*float64(n.Total):
		n.State = StateStrong
	default:
		n.State = StateWeak
	}

	newBest := cfg.NoBlock
	if best != nil {
		newBest = best.Z
	}
	// Only the maximally correlated branches are interesting to the trace
	// cache (§4.1.1): signal when the node crosses the correlated/weak
	// boundary, or when a correlated node's predicted successor changes.
	// A unique<->strong flip with the same successor changes nothing the
	// trace constructor would use, so it is not a state change — the flip
	// happens constantly on loop branches whose rare exit edge decays away
	// and reappears.
	oldCorr := oldState.Correlated()
	newCorr := n.State.Correlated()
	if oldCorr == newCorr && (!newCorr || newBest == oldBest) {
		n.ackState = n.State
		n.ackBest = newBest
		return
	}
	n.ackState = n.State
	n.ackBest = newBest
	g.ctr.Signals++
	if g.sink != nil {
		best := int64(obs.NoID)
		if newBest != cfg.NoBlock {
			best = int64(newBest)
		}
		g.sink.Emit(obs.Event{
			Type: obs.EvNodeState,
			Old:  uint8(oldState), New: uint8(n.State),
			X: int32(n.X), Y: int32(n.Y),
			TraceID: obs.NoID,
			Val:     best,
		})
	}
	if g.listener != nil {
		g.listener.OnSignal(Signal{
			Node:     n,
			OldState: oldState,
			NewState: n.State,
			OldBest:  oldBest,
			NewBest:  newBest,
		})
	}
}

// Acknowledge records that the trace cache has incorporated the node's
// current summary; identical future evaluations will not signal. The trace
// cache calls this for every node it touches during reconstruction, which is
// the paper's "all the instructions found to be related to the process have
// their state updated as their trace is currently up to date".
func (n *Node) Acknowledge() {
	n.ackState = n.State
	if n.Best != nil {
		n.ackBest = n.Best.Z
	} else {
		n.ackBest = cfg.NoBlock
	}
}

// Unacknowledge clears the trace cache's acknowledgement of this node, so
// the next evaluation signals even if the summary has not changed since. The
// cache calls this when budget pressure evicts a trace through this branch
// context: if the region is (or becomes) hot again, its next decay
// re-signals and the evicted trace is rebuilt on demand instead of being
// lost for good; a region that stays cold never decays and never re-signals,
// which is exactly the heat-aware behaviour eviction wants.
func (n *Node) Unacknowledge() {
	n.ackState = StateNew
	n.ackBest = cfg.NoBlock
}

// BestCorrelation returns the correlation of the cached best successor, or
// 0 when there is none.
func (n *Node) BestCorrelation() float64 {
	if n.Best == nil {
		return 0
	}
	return n.Best.Correlation()
}

// EdgeTo returns the correlation edge toward successor z, or nil. Edges are
// sorted by Z, so the scan stops early on a miss.
func (n *Node) EdgeTo(z cfg.BlockID) *Edge {
	for _, e := range n.Edges {
		if e.Z >= z {
			if e.Z == z {
				return e
			}
			break
		}
	}
	return nil
}

// StrongIn returns the incoming edges whose owner is correlated (strong or
// unique) with this node as its best successor — the edges trace
// construction backtracks along.
func (n *Node) StrongIn() []*Edge {
	var out []*Edge
	for _, e := range n.In {
		o := e.Owner
		if o.State.Correlated() && o.Best == e {
			out = append(out, e)
		}
	}
	return out
}

// DumpDOT renders the graph in Graphviz format; hot nodes only (Total >=
// minTotal) to keep output readable.
func (g *Graph) DumpDOT(minTotal int) string {
	var rows []*Node
	for _, n := range g.all {
		if int(n.Total) >= minTotal {
			rows = append(rows, n)
		}
	}
	sort.Slice(rows, func(i, j int) bool { return trace.EdgeKey(rows[i].X, rows[i].Y) < trace.EdgeKey(rows[j].X, rows[j].Y) })
	s := "digraph bcg {\n"
	for _, n := range rows {
		s += fmt.Sprintf("  n%d_%d [label=\"(%d,%d)\\n%s total=%d\"];\n", n.X, n.Y, n.X, n.Y, n.State, n.Total)
		for _, e := range n.Edges {
			s += fmt.Sprintf("  n%d_%d -> n%d_%d [label=\"%d (%.2f)\"];\n", n.X, n.Y, e.To.X, e.To.Y, e.Count, e.Correlation())
		}
	}
	return s + "}\n"
}
