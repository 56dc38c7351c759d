package core

import (
	"reflect"
	"sort"
	"testing"

	"repro/internal/cfg"
	"repro/internal/profile"
	"repro/internal/trace"
)

// loopEntry warms a steady loop and returns one live trace with one of its
// entry edges, the lowest registered edge for determinism.
func loopEntry(t *testing.T) (d *driver, tr *trace.Trace, from, to cfg.BlockID) {
	t.Helper()
	d = newDriver(t, profile.Params{StartDelay: 1, Threshold: 0.9, DecayInterval: 64})
	d.cycle(400, 1, 2, 3)
	traces := d.c.Traces()
	if len(traces) == 0 {
		t.Fatalf("no traces built for a steady loop")
	}
	tr = traces[0]
	var edges []uint64
	for e := range d.c.regs[tr] {
		edges = append(edges, e)
	}
	sort.Slice(edges, func(i, j int) bool { return edges[i] < edges[j] })
	return d, tr, cfg.BlockID(edges[0] >> 32), cfg.BlockID(edges[0])
}

// lookupBoth returns Graph.Lookup(from, to) on the context-hit path (the
// context was just moved onto N(from,to) by a dispatch) and on the fallback
// path (no context).
func lookupBoth(g *profile.Graph, from, to cfg.BlockID) (hit, fallback *trace.Trace) {
	g.ResetContext()
	g.OnDispatch(from, to)
	hit = g.Lookup(from, to)
	g.ResetContext()
	fallback = g.Lookup(from, to)
	return hit, fallback
}

func TestGraphLookupServesNodeHeldEntry(t *testing.T) {
	d, tr, from, to := loopEntry(t)
	if hit, fb := lookupBoth(d.g, from, to); hit != tr || fb != tr {
		t.Fatalf("Lookup(%d,%d): hit %v, fallback %v, want trace %d on both paths", from, to, hit, fb, tr.ID)
	}

	// The context node N(from,to) answers only for its own edge: another
	// predecessor of the same block, or another destination, must miss.
	d.g.ResetContext()
	d.g.OnDispatch(from, to)
	if got := d.g.Lookup(99, to); got != nil {
		t.Errorf("context N(%d,%d) answered Lookup(99,%d) with trace %d", from, to, to, got.ID)
	}
	if got := d.g.Lookup(from, 99); got != nil {
		t.Errorf("context N(%d,%d) answered Lookup(%d,99) with trace %d", from, to, from, got.ID)
	}
	// A context on another edge falls back to the node table.
	d.g.ResetContext()
	d.g.OnDispatch(7, 8)
	if got := d.g.Lookup(from, to); got != tr {
		t.Errorf("Lookup(%d,%d) under a foreign context = %v, want trace %d", from, to, got, tr.ID)
	}
	if got := d.g.Lookup(1<<20, 1<<20); got != nil {
		t.Errorf("Lookup beyond the node table = %v, want nil", got)
	}
	d.check(t)
}

func TestGraphLookupNilAfterRetire(t *testing.T) {
	d, tr, from, to := loopEntry(t)
	d.c.retire(tr)
	if hit, fb := lookupBoth(d.g, from, to); hit != nil || fb != nil {
		t.Fatalf("retired trace still served: hit %v, fallback %v", hit, fb)
	}
	d.check(t)
}

func TestGraphLookupNilAfterEvict(t *testing.T) {
	d, tr, from, to := loopEntry(t)
	d.c.evict(tr)
	if hit, fb := lookupBoth(d.g, from, to); hit != nil || fb != nil {
		t.Fatalf("evicted trace still served: hit %v, fallback %v", hit, fb)
	}
	d.check(t)
}

func TestGraphLookupFollowsReregistration(t *testing.T) {
	d, old, from, to := loopEntry(t)
	nodes := d.c.nodePath(from, old.Blocks)
	if len(nodes) < 3 {
		t.Fatalf("trace %d too short to re-register a prefix: %v", old.ID, old.Blocks)
	}
	// A different block sequence registered on the same entry edge
	// replaces the old registration there.
	d.c.register(nodes[:len(nodes)-1], old.ExpectedCompletion)
	tr := nodes[0].Entry
	if tr == nil || tr == old || !reflect.DeepEqual(tr.Blocks, old.Blocks[:len(old.Blocks)-1]) {
		t.Fatalf("re-registration on (%d,%d) left entry %v", from, to, tr)
	}
	if hit, fb := lookupBoth(d.g, from, to); hit != tr || fb != tr {
		t.Fatalf("Lookup(%d,%d) after re-registration: hit %v, fallback %v, want trace %d", from, to, hit, fb, tr.ID)
	}
	if d.c.regs[old][trace.EdgeKey(from, to)] {
		t.Errorf("replaced trace %d still registered on (%d,%d)", old.ID, from, to)
	}
	d.check(t)
}

// TestCheckInvariantsCatchesForeignEntry: a node holding a trace this cache
// never registered there (as a merge or seed that copied another shard's
// pointer would leave it) fails the invariant check.
func TestCheckInvariantsCatchesForeignEntry(t *testing.T) {
	d, _, _, _ := loopEntry(t)
	d.g.OnDispatch(7, 8)
	d.g.Node(7, 8).Entry = trace.New(99, []cfg.BlockID{8, 9}, 1)
	if err := d.c.CheckInvariants(); err == nil {
		t.Fatal("a foreign entry trace on a node passed the invariant check")
	}
}

func TestCacheLoopHeaders(t *testing.T) {
	c := NewCache(Config{}, nil)
	if got := c.LoopHeaders(); len(got) != 0 {
		t.Fatalf("fresh cache LoopHeaders = %v, want none", got)
	}
	c.SetLoopHeaders([]cfg.BlockID{40, cfg.NoBlock, 3})
	c.SetLoopHeaders([]cfg.BlockID{7, 3}) // hints accumulate; duplicates fold
	want := []cfg.BlockID{3, 7, 40}
	if got := c.LoopHeaders(); !reflect.DeepEqual(got, want) {
		t.Fatalf("LoopHeaders = %v, want %v (ascending, NoBlock ignored)", got, want)
	}
}

// TestLoopHeadersSurviveWarmStart: the loop-header anchors export with a
// profiler's learned state and come back on a session seeded from it.
func TestLoopHeadersSurviveWarmStart(t *testing.T) {
	d, _, _, _ := loopEntry(t)
	d.c.SetLoopHeaders([]cfg.BlockID{2, 5})
	src := &Profiler{params: d.g.Params(), Graph: d.g, Cache: d.c}
	snap := src.ExportSnapshot("k", "p")
	if want := []cfg.BlockID{2, 5}; !reflect.DeepEqual(snap.LoopHeaders, want) {
		t.Fatalf("exported loop headers %v, want %v", snap.LoopHeaders, want)
	}

	warm := newDriver(t, d.g.Params())
	s := &Session{Graph: warm.g, Cache: warm.c, Counters: warm.ctr}
	if err := seedSession(s, snap, d.g.Params()); err != nil {
		t.Fatal(err)
	}
	if got := warm.c.LoopHeaders(); !reflect.DeepEqual(got, snap.LoopHeaders) {
		t.Errorf("seeded loop headers %v, want %v", got, snap.LoopHeaders)
	}
	warm.check(t)
}
