package profile

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/cfg"
	"repro/internal/stats"
)

// recorder captures signals for assertions.
type recorder struct {
	signals []Signal
}

func (r *recorder) OnSignal(sig Signal) { r.signals = append(r.signals, sig) }

func newGraph(t *testing.T, p Params) (*Graph, *recorder, *stats.Counters) {
	t.Helper()
	rec := &recorder{}
	ctr := &stats.Counters{}
	g, err := New(p, ctr, rec)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return g, rec, ctr
}

// feed drives the graph with a block sequence (consecutive dispatches).
func feed(g *Graph, blocks ...cfg.BlockID) {
	for i := 1; i < len(blocks); i++ {
		g.OnDispatch(blocks[i-1], blocks[i])
	}
}

func TestParamsValidate(t *testing.T) {
	bad := []Params{
		{StartDelay: -1, Threshold: 0.9, DecayInterval: 256},
		{StartDelay: 1, Threshold: 0, DecayInterval: 256},
		{StartDelay: 1, Threshold: 1.5, DecayInterval: 256},
		{StartDelay: 1, Threshold: 0.9, DecayInterval: 0},
	}
	for _, p := range bad {
		if _, err := New(p, nil, nil); err == nil {
			t.Errorf("params %+v accepted", p)
		}
	}
	if err := DefaultParams().Validate(); err != nil {
		t.Errorf("default params invalid: %v", err)
	}
}

func TestNodeAndEdgeCreation(t *testing.T) {
	g, _, ctr := newGraph(t, Params{StartDelay: 1, Threshold: 0.97, DecayInterval: 256})
	// Sequence 1,2,3: creates nodes (1,2) and (2,3) and edge between them.
	feed(g, 1, 2, 3)
	n12 := g.Node(1, 2)
	n23 := g.Node(2, 3)
	if n12 == nil || n23 == nil {
		t.Fatal("nodes not created")
	}
	if len(n12.Edges) != 1 || n12.Edges[0].To != n23 || n12.Edges[0].Z != 3 {
		t.Fatalf("edge E_123 wrong: %+v", n12.Edges)
	}
	if len(n23.In) != 1 || n23.In[0].Owner != n12 {
		t.Error("in-edge not linked")
	}
	if ctr.NodesCreated != 2 || ctr.EdgesCreated != 1 {
		t.Errorf("counters: nodes %d edges %d", ctr.NodesCreated, ctr.EdgesCreated)
	}
	if n12.Total != 1 || n12.Edges[0].Count != 1 {
		t.Errorf("counts: total %d edge %d", n12.Total, n12.Edges[0].Count)
	}
}

func TestInlineCacheFastPath(t *testing.T) {
	g, _, _ := newGraph(t, Params{StartDelay: 1, Threshold: 0.97, DecayInterval: 1 << 30})
	for i := 0; i < 100; i++ {
		feed(g, 1, 2, 3)
		g.ResetContext()
	}
	n12 := g.Node(1, 2)
	if n12.Best == nil || n12.Best.Z != 3 {
		t.Fatal("inline cache not set to the hot successor")
	}
	if n12.Total != 100 {
		t.Errorf("total = %d, want 100", n12.Total)
	}
}

func TestStartStateDelay(t *testing.T) {
	g, rec, _ := newGraph(t, Params{StartDelay: 10, Threshold: 0.97, DecayInterval: 1 << 30})
	for i := 0; i < 9; i++ {
		feed(g, 1, 2, 3)
		g.ResetContext()
	}
	n12 := g.Node(1, 2)
	if n12.State != StateNew {
		t.Fatalf("state after 9 executions = %v, want new", n12.State)
	}
	if len(rec.signals) != 0 {
		t.Fatalf("signalled before delay expiry: %v", rec.signals)
	}
	feed(g, 1, 2, 3)
	if n12.State != StateUnique {
		t.Fatalf("state after 10 executions = %v, want unique", n12.State)
	}
	if len(rec.signals) != 1 {
		t.Fatalf("signals = %d, want 1 (new->unique)", len(rec.signals))
	}
	sig := rec.signals[0]
	if sig.Node != n12 || sig.OldState != StateNew || sig.NewState != StateUnique || sig.NewBest != 3 {
		t.Errorf("signal contents wrong: %+v", sig)
	}
}

func TestStateClassification(t *testing.T) {
	// Node (1,2) with two successors: 3 dominant, 4 rare.
	g, _, _ := newGraph(t, Params{StartDelay: 1, Threshold: 0.9, DecayInterval: 256})
	for i := 0; i < 255; i++ {
		if i%50 == 49 {
			feed(g, 1, 2, 4)
		} else {
			feed(g, 1, 2, 3)
		}
		g.ResetContext()
	}
	// Force the decay evaluation on execution 256.
	feed(g, 1, 2, 3)
	g.ResetContext()
	n12 := g.Node(1, 2)
	if n12.State != StateStrong {
		t.Errorf("state = %v, want strong (dominant ratio ~0.98)", n12.State)
	}
	if n12.Best == nil || n12.Best.Z != 3 {
		t.Error("best successor should be 3")
	}

	// Now a 50/50 node: should be weak after decay.
	g2, _, _ := newGraph(t, Params{StartDelay: 1, Threshold: 0.9, DecayInterval: 256})
	for i := 0; i < 256; i++ {
		if i%2 == 0 {
			feed(g2, 1, 2, 3)
		} else {
			feed(g2, 1, 2, 4)
		}
		g2.ResetContext()
	}
	n := g2.Node(1, 2)
	if n.State != StateWeak {
		t.Errorf("50/50 node state = %v, want weak", n.State)
	}
}

func TestDecayHalvesCountsAndPrunes(t *testing.T) {
	p := Params{StartDelay: 1, Threshold: 0.9, DecayInterval: 256}
	g, _, ctr := newGraph(t, p)
	// One rare successor early, then only the dominant one.
	feed(g, 1, 2, 4)
	g.ResetContext()
	for i := 0; i < 255; i++ {
		feed(g, 1, 2, 3)
		g.ResetContext()
	}
	n := g.Node(1, 2)
	if ctr.DecayChecks != 1 {
		t.Fatalf("decay checks = %d, want 1", ctr.DecayChecks)
	}
	// After one decay: edge(3) 255>>1=127, edge(4) 1>>1=0 -> pruned.
	if len(n.Edges) != 1 || n.Edges[0].Z != 3 {
		t.Fatalf("edges after decay: %+v", n.Edges)
	}
	if n.Total != 127 {
		t.Errorf("total after decay = %d, want 127", n.Total)
	}
	if n.State != StateUnique {
		t.Errorf("state = %v, want unique after prune", n.State)
	}
	// The pruned edge must also disappear from the target's in-list.
	n24 := g.Node(2, 4)
	if len(n24.In) != 0 {
		t.Error("pruned edge still in target's in-list")
	}
}

func TestContextInvalidationRestarts(t *testing.T) {
	g, _, _ := newGraph(t, Params{StartDelay: 1, Threshold: 0.97, DecayInterval: 256})
	feed(g, 1, 2, 3)
	// A dispatch whose from does not match the context's Y restarts the
	// context without recording a bogus correlation.
	g.OnDispatch(7, 8)
	n78 := g.Node(7, 8)
	if n78 == nil {
		t.Fatal("restart did not create the new context")
	}
	if n78.Total != 0 {
		t.Errorf("restart should not bump the new node: total=%d", n78.Total)
	}
	n23 := g.Node(2, 3)
	if len(n23.Edges) != 0 {
		t.Error("restart recorded a correlation across the discontinuity")
	}
}

func TestBestChangeSignals(t *testing.T) {
	p := Params{StartDelay: 1, Threshold: 0.6, DecayInterval: 64}
	g, rec, _ := newGraph(t, p)
	// Phase 1: successor 3 dominates.
	for i := 0; i < 256; i++ {
		feed(g, 1, 2, 3)
		g.ResetContext()
	}
	base := len(rec.signals)
	// Phase 2: successor 4 takes over; decay must flip Best and signal.
	for i := 0; i < 1024; i++ {
		feed(g, 1, 2, 4)
		g.ResetContext()
	}
	n := g.Node(1, 2)
	if n.Best == nil || n.Best.Z != 4 {
		t.Fatalf("best after phase change = %+v, want 4", n.Best)
	}
	if len(rec.signals) <= base {
		t.Error("phase change produced no signal")
	}
}

func TestUniqueStrongFlipDoesNotSignal(t *testing.T) {
	// A loop branch whose exit edge appears rarely: the node oscillates
	// between unique (exit pruned) and strong (exit present), but the best
	// successor never changes, so no signals should fire after the first.
	p := Params{StartDelay: 1, Threshold: 0.9, DecayInterval: 64}
	g, rec, _ := newGraph(t, p)
	for i := 0; i < 4096; i++ {
		if i%300 == 299 {
			feed(g, 1, 2, 4) // rare exit
		} else {
			feed(g, 1, 2, 3) // loop back
		}
		g.ResetContext()
	}
	if len(rec.signals) > 1 {
		t.Errorf("unique<->strong oscillation produced %d signals, want 1", len(rec.signals))
	}
}

func TestStrongIn(t *testing.T) {
	g, _, _ := newGraph(t, Params{StartDelay: 1, Threshold: 0.9, DecayInterval: 64})
	for i := 0; i < 256; i++ {
		feed(g, 1, 2, 3, 4)
		g.ResetContext()
	}
	n23 := g.Node(2, 3)
	strong := n23.StrongIn()
	if len(strong) != 1 || strong[0].Owner != g.Node(1, 2) {
		t.Errorf("StrongIn = %v", strong)
	}
}

func TestAcknowledgeSuppressesRepeatSignal(t *testing.T) {
	g, rec, _ := newGraph(t, Params{StartDelay: 1, Threshold: 0.9, DecayInterval: 64})
	for i := 0; i < 128; i++ {
		feed(g, 1, 2, 3)
		g.ResetContext()
	}
	n := g.Node(1, 2)
	base := len(rec.signals)
	n.Acknowledge()
	for i := 0; i < 512; i++ {
		feed(g, 1, 2, 3)
		g.ResetContext()
	}
	if len(rec.signals) != base {
		t.Errorf("stable node signalled %d more times after acknowledge", len(rec.signals)-base)
	}
}

func TestEdgeToAndCorrelations(t *testing.T) {
	g, _, _ := newGraph(t, Params{StartDelay: 1, Threshold: 0.9, DecayInterval: 1 << 30})
	for i := 0; i < 3; i++ {
		feed(g, 1, 2, 3)
		g.ResetContext()
	}
	feed(g, 1, 2, 4)
	n := g.Node(1, 2)
	e3 := n.EdgeTo(3)
	e4 := n.EdgeTo(4)
	if e3 == nil || e4 == nil || n.EdgeTo(9) != nil {
		t.Fatal("EdgeTo wrong")
	}
	if e3.Correlation() != 0.75 || e4.Correlation() != 0.25 {
		t.Errorf("correlations = %v, %v; want 0.75, 0.25", e3.Correlation(), e4.Correlation())
	}
	if n.BestCorrelation() != 0.75 {
		t.Errorf("best correlation = %v", n.BestCorrelation())
	}
}

func TestDumpDOT(t *testing.T) {
	g, _, _ := newGraph(t, Params{StartDelay: 1, Threshold: 0.9, DecayInterval: 1 << 30})
	for i := 0; i < 10; i++ {
		feed(g, 1, 2, 3)
		g.ResetContext()
	}
	dot := g.DumpDOT(1)
	if dot == "" || dot[:7] != "digraph" {
		t.Errorf("DOT output malformed: %q", dot)
	}
	// High threshold filters everything.
	if g.DumpDOT(10000) == dot {
		t.Error("minTotal filter had no effect")
	}
}

// TestPropertyTotalEqualsEdgeSum: the invariant Total == Σ edge.Count holds
// under arbitrary dispatch streams, decays included.
func TestPropertyTotalEqualsEdgeSum(t *testing.T) {
	f := func(seed int64, delayPick, decayPick uint8) bool {
		r := rand.New(rand.NewSource(seed))
		delays := []int32{1, 4, 64}
		decays := []uint32{16, 64, 256}
		p := Params{
			StartDelay:    delays[int(delayPick)%len(delays)],
			Threshold:     0.95,
			DecayInterval: decays[int(decayPick)%len(decays)],
		}
		g, err := New(p, nil, nil)
		if err != nil {
			return false
		}
		// Random walk over a small block universe with restarts.
		cur := cfg.BlockID(r.Intn(8))
		for i := 0; i < 5000; i++ {
			if r.Intn(100) == 0 {
				g.ResetContext()
				cur = cfg.BlockID(r.Intn(8))
				continue
			}
			next := cfg.BlockID(r.Intn(8))
			g.OnDispatch(cur, next)
			cur = next
		}
		ok := true
		g.Nodes(func(n *Node) {
			var sum uint16
			for _, e := range n.Edges {
				if e.Count == 0 {
					ok = false // zero edges must be pruned at decay
				}
				sum += e.Count
			}
			// Between decays the node may have accumulated more executions
			// than edge increments only when correlations were not recorded
			// (context restarts); Total may exceed the sum never — edges
			// are bumped with the node.
			if sum != n.Total {
				ok = false
			}
			// In-edge symmetry: every in-edge's To points back here.
			for _, e := range n.In {
				if e.To != n {
					ok = false
				}
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestPropertyBestIsArgmaxAfterDecay: after any decay evaluation, Best has
// the maximal count among remaining edges.
func TestPropertyBestIsArgmaxAfterDecay(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g, err := New(Params{StartDelay: 1, Threshold: 0.9, DecayInterval: 32}, nil, nil)
		if err != nil {
			return false
		}
		cur := cfg.BlockID(r.Intn(6))
		for i := 0; i < 3000; i++ {
			next := cfg.BlockID(r.Intn(6))
			g.OnDispatch(cur, next)
			cur = next
		}
		ok := true
		g.Nodes(func(n *Node) {
			if n.State == StateNew || n.Best == nil {
				return
			}
			// Best must be at least as large as every edge except for
			// counts accumulated since the last evaluation (the fast path
			// bumps Best only if predicted; an unpredicted edge can exceed
			// it by at most DecayInterval-1 before re-evaluation). We check
			// the weaker, always-true property: Best is one of the edges.
			found := false
			for _, e := range n.Edges {
				if e == n.Best {
					found = true
				}
			}
			if !found {
				ok = false
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestKeyPacksPairs pins the ordering DumpDOT gets from the packed edge
// key: one 64-bit value per (X, Y) pair with X in the high word, so nodes
// list by X first and only then by Y, whatever order they were made in.
func TestKeyPacksPairs(t *testing.T) {
	g, _, _ := newGraph(t, DefaultParams())
	for _, run := range [][]cfg.BlockID{{2, 0, 5}, {1, 9}, {1, 2}} {
		g.ResetContext()
		feed(g, run...)
	}
	dot := g.DumpDOT(0)
	want := []string{"n0_5 [", "n1_2 [", "n1_9 [", "n2_0 ["}
	last := -1
	for _, w := range want {
		i := strings.Index(dot, w)
		if i < 0 {
			t.Fatalf("DumpDOT lacks node %q:\n%s", w, dot)
		}
		if i < last {
			t.Errorf("node %q listed out of (X, Y) order:\n%s", w, dot)
		}
		last = i
	}
}

func TestStateStrings(t *testing.T) {
	for s, want := range map[State]string{
		StateNew: "new", StateWeak: "weak", StateStrong: "strong", StateUnique: "unique",
	} {
		if s.String() != want {
			t.Errorf("%d.String() = %q, want %q", s, s.String(), want)
		}
	}
	if !StateStrong.Correlated() || !StateUnique.Correlated() {
		t.Error("strong/unique must be correlated")
	}
	if StateNew.Correlated() || StateWeak.Correlated() {
		t.Error("new/weak must not be correlated")
	}
}

func TestStaticHintSeedsUniqueWithZeroDelay(t *testing.T) {
	// Block 2 is statically proven single-successor: its nodes must be born
	// unique and signal on the very first recorded correlation, with zero
	// start-delay dispatches consumed. Block 5 is the unhinted control and
	// must wait out the full delay.
	g, rec, ctr := newGraph(t, Params{StartDelay: 64, Threshold: 0.97, DecayInterval: 1 << 30})
	g.SetStaticHints([]cfg.BlockID{2})

	feed(g, 1, 2, 3)
	n12 := g.Node(1, 2)
	if n12 == nil {
		t.Fatal("node (1,2) not created")
	}
	if n12.State != StateUnique {
		t.Fatalf("hinted node state = %v, want unique", n12.State)
	}
	if n12.startDelay >= 0 {
		t.Fatalf("hinted node consumed start delay (startDelay=%d)", n12.startDelay)
	}
	if ctr.NodesSeededUnique != 1 {
		t.Fatalf("NodesSeededUnique = %d, want 1", ctr.NodesSeededUnique)
	}
	if len(rec.signals) != 1 {
		t.Fatalf("want 1 signal after first correlation, got %d", len(rec.signals))
	}
	sig := rec.signals[0]
	if sig.Node != n12 || sig.NewState != StateUnique || sig.NewBest != 3 {
		t.Fatalf("bad signal: %+v", sig)
	}

	// Control: an unhinted node stays StateNew until the delay expires.
	g.ResetContext()
	feed(g, 4, 5, 6)
	n45 := g.Node(4, 5)
	if n45.State != StateNew {
		t.Fatalf("unhinted node state = %v, want new", n45.State)
	}
	if n45.startDelay != 63 {
		t.Fatalf("unhinted node startDelay = %d, want 63", n45.startDelay)
	}
	if len(rec.signals) != 1 {
		t.Fatalf("unhinted node signaled early: %d signals", len(rec.signals))
	}
}

func TestStaticHintSeededCounter(t *testing.T) {
	g, _, ctr := newGraph(t, Params{StartDelay: 64, Threshold: 0.97, DecayInterval: 1 << 30})
	g.SetStaticHints([]cfg.BlockID{2, 3})
	feed(g, 1, 2, 3, 7)
	// Nodes created: (1,2) hinted, (2,3) hinted, (3,7) not.
	if ctr.NodesCreated != 3 {
		t.Fatalf("NodesCreated = %d, want 3", ctr.NodesCreated)
	}
	if ctr.NodesSeededUnique != 2 {
		t.Fatalf("NodesSeededUnique = %d, want 2", ctr.NodesSeededUnique)
	}
}

func TestStaticHintDecayKeepsNodeLive(t *testing.T) {
	// After seeding, dynamic evolution proceeds as usual: decay halves the
	// counts but the unique classification survives re-evaluation.
	g, _, _ := newGraph(t, Params{StartDelay: 64, Threshold: 0.97, DecayInterval: 8})
	g.SetStaticHints([]cfg.BlockID{2})
	for i := 0; i < 100; i++ {
		feed(g, 1, 2, 3)
		g.ResetContext()
	}
	n12 := g.Node(1, 2)
	if n12.State != StateUnique {
		t.Fatalf("state after decay churn = %v, want unique", n12.State)
	}
}
