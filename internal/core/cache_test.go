package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/cfg"
	"repro/internal/profile"
	"repro/internal/stats"
	"repro/internal/trace"
)

// driver wires a graph to a cache and feeds synthetic dispatch streams.
type driver struct {
	g   *Graph
	c   *Cache
	ctr *stats.Counters
}

// Graph aliases profile.Graph for brevity in this file.
type Graph = profile.Graph

func newDriver(t *testing.T, p profile.Params) *driver {
	return newDriverConf(t, p, Config{})
}

func newDriverConf(t *testing.T, p profile.Params, conf Config) *driver {
	t.Helper()
	ctr := &stats.Counters{}
	c := NewCache(conf, ctr)
	g, err := profile.New(p, ctr, c)
	if err != nil {
		t.Fatal(err)
	}
	c.Bind(g)
	return &driver{g: g, c: c, ctr: ctr}
}

// check asserts the cache's structural invariants hold.
func (d *driver) check(t *testing.T) {
	t.Helper()
	if err := d.c.CheckInvariants(); err != nil {
		t.Fatalf("cache invariants violated: %v\n%s", err, d.c.Dump())
	}
}

// replay feeds the block sequence repeatedly as disconnected chains (the
// context restarts between repetitions).
func (d *driver) replay(times int, blocks ...cfg.BlockID) {
	for r := 0; r < times; r++ {
		for i := 1; i < len(blocks); i++ {
			d.g.OnDispatch(blocks[i-1], blocks[i])
		}
	}
}

// cycle feeds the block sequence as a continuous loop: ... b_n -> b_0 -> b_1
// ... so the back edge is part of the stream.
func (d *driver) cycle(times int, blocks ...cfg.BlockID) {
	for r := 0; r < times; r++ {
		for i := 1; i < len(blocks); i++ {
			d.g.OnDispatch(blocks[i-1], blocks[i])
		}
		d.g.OnDispatch(blocks[len(blocks)-1], blocks[0])
	}
}

func TestCacheBuildsLoopTraceUnrolledOnce(t *testing.T) {
	d := newDriver(t, profile.Params{StartDelay: 1, Threshold: 0.9, DecayInterval: 64})
	// Steady loop 1->2->3->1...
	d.cycle(400, 1, 2, 3)
	if d.c.NumTraces() == 0 {
		t.Fatal("no traces built for a steady loop")
	}
	// Some registered trace must cover the loop, unrolled once (the loop
	// body appears twice in the block sequence).
	found := false
	for _, tr := range d.c.Traces() {
		if tr.Len() == 6 {
			found = true
		}
	}
	if !found {
		t.Errorf("no unrolled loop trace found:\n%s", d.c.Dump())
	}
	d.check(t)
}

func TestCacheLookupIsEdgeKeyed(t *testing.T) {
	d := newDriver(t, profile.Params{StartDelay: 1, Threshold: 0.9, DecayInterval: 64})
	d.cycle(400, 1, 2, 3)
	var entryFrom, entryTo cfg.BlockID = cfg.NoBlock, cfg.NoBlock
	for _, tr := range d.c.Traces() {
		_ = tr
	}
	// Find any registered edge by probing the loop's edges.
	probes := [][2]cfg.BlockID{{1, 2}, {2, 3}, {3, 1}}
	for _, p := range probes {
		if d.g.Lookup(p[0], p[1]) != nil {
			entryFrom, entryTo = p[0], p[1]
		}
	}
	if entryFrom == cfg.NoBlock {
		t.Fatalf("no trace registered on any loop edge:\n%s", d.c.Dump())
	}
	// A different arrival edge to the same block must not hit.
	if d.g.Lookup(99, entryTo) != nil {
		t.Error("lookup with a foreign from-block returned a trace")
	}
	_ = entryFrom
}

func TestCutRespectsThreshold(t *testing.T) {
	// Chain 1..6 where the 3->4 transition is only ~80% likely: traces must
	// never span it at a 97% threshold.
	d := newDriver(t, profile.Params{StartDelay: 1, Threshold: 0.97, DecayInterval: 64})
	for r := 0; r < 300; r++ {
		if r%5 == 4 {
			d.replay(1, 1, 2, 3, 9, 1) // diverge at 3
		} else {
			d.replay(1, 1, 2, 3, 4, 5, 1)
		}
	}
	for _, tr := range d.c.Traces() {
		for i := 1; i < len(tr.Blocks); i++ {
			if tr.Blocks[i-1] == 3 && (tr.Blocks[i] == 4 || tr.Blocks[i] == 9) {
				t.Errorf("trace %v crosses the weak branch 3->x", tr.Blocks)
			}
		}
	}
	if d.c.NumTraces() == 0 {
		t.Fatal("no traces built at all")
	}
}

func TestHashConsingReusesSequences(t *testing.T) {
	d := newDriver(t, profile.Params{StartDelay: 1, Threshold: 0.9, DecayInterval: 64})
	d.cycle(2000, 1, 2, 3)
	built := d.ctr.TracesBuilt
	reused := d.ctr.TracesReused
	if built == 0 {
		t.Fatal("nothing built")
	}
	if reused == 0 {
		t.Skip("no reconstruction happened in this run; nothing to assert")
	}
	// Re-derivations of the same block sequence must not mint new traces.
	if built > reused+8 {
		t.Errorf("built %d traces with only %d reuses — hash-consing suspect", built, reused)
	}
}

func TestInvalidationOnPhaseChange(t *testing.T) {
	d := newDriver(t, profile.Params{StartDelay: 1, Threshold: 0.9, DecayInterval: 64})
	// Phase 1: the loop takes the left arm after block 2: 1->2->3->1.
	d.cycle(500, 1, 2, 3)
	phase1 := d.c.NumTraces()
	if phase1 == 0 {
		t.Fatal("no phase-1 traces")
	}
	// Phase 2: block 2 now branches right: 1->2->9->1. The context (1,2)
	// stays hot, so decay must flip its best successor, signal, and retire
	// the stale traces through 2->3.
	d.cycle(2000, 1, 2, 9)
	if d.ctr.TracesRetired == 0 {
		t.Error("phase change retired nothing")
	}
	// A live trace containing the stale 2->3 transition must be gone.
	for _, tr := range d.c.Traces() {
		for i := 1; i < len(tr.Blocks); i++ {
			if tr.Blocks[i-1] == 2 && tr.Blocks[i] == 3 {
				t.Errorf("stale trace %v survived the phase change", tr.Blocks)
			}
		}
	}
	// And the new phase must be covered by fresh traces.
	fresh := false
	for _, tr := range d.c.Traces() {
		for i := 1; i < len(tr.Blocks); i++ {
			if tr.Blocks[i-1] == 2 && tr.Blocks[i] == 9 {
				fresh = true
			}
		}
	}
	if !fresh {
		t.Errorf("no trace covers the phase-2 path:\n%s", d.c.Dump())
	}
	d.check(t)
}

func TestColdTracesStayCachedAcrossPhaseChange(t *testing.T) {
	// Stability (§3.6): when a phase change abandons a region entirely, no
	// signals touch its nodes, so its traces stay registered (harmless,
	// since their entry edges never occur again) instead of being flushed
	// Dynamo-style.
	d := newDriver(t, profile.Params{StartDelay: 1, Threshold: 0.9, DecayInterval: 64})
	d.cycle(500, 1, 2, 3)
	before := d.c.NumTraces()
	if before == 0 {
		t.Fatal("no phase-1 traces")
	}
	d.cycle(2000, 11, 12, 13) // disjoint region
	survived := false
	for _, tr := range d.c.Traces() {
		for _, b := range tr.Blocks {
			if b <= 3 {
				survived = true
			}
		}
	}
	if !survived {
		t.Error("abandoned-region traces were flushed; expected informed stability")
	}
}

func TestRetiredTraceUnregisteredEverywhere(t *testing.T) {
	d := newDriver(t, profile.Params{StartDelay: 1, Threshold: 0.9, DecayInterval: 64})
	d.cycle(500, 1, 2, 3)
	traces := d.c.Traces()
	if len(traces) == 0 {
		t.Fatal("no traces")
	}
	victim := traces[0]
	d.c.retire(victim)
	if !victim.Retired {
		t.Error("retire did not mark the trace")
	}
	for from := cfg.BlockID(0); from < 8; from++ {
		for to := cfg.BlockID(0); to < 8; to++ {
			if d.g.Lookup(from, to) == victim {
				t.Errorf("retired trace still registered at (%d,%d)", from, to)
			}
		}
	}
	// Hash-cons entry is gone: the same sequence can be rebuilt fresh.
	if d.c.byKey[trace.Key(victim.Blocks)] == victim {
		t.Error("retired trace still hash-consed")
	}
}

func TestMinBlocksFilter(t *testing.T) {
	ctr := &stats.Counters{}
	c := NewCache(Config{MinBlocks: 4}, ctr)
	g, err := profile.New(profile.Params{StartDelay: 1, Threshold: 0.9, DecayInterval: 64}, ctr, c)
	if err != nil {
		t.Fatal(err)
	}
	c.Bind(g)
	// Two-block loop: every candidate has 2 or 4 blocks (unrolled); only
	// the 4-block unroll passes the filter.
	for r := 0; r < 500; r++ {
		g.OnDispatch(1, 2)
		g.OnDispatch(2, 1)
	}
	for _, tr := range c.Traces() {
		if tr.Len() < 4 {
			t.Errorf("trace below MinBlocks registered: %v", tr.Blocks)
		}
	}
}

func TestMaxBlocksCap(t *testing.T) {
	ctr := &stats.Counters{}
	c := NewCache(Config{MaxBlocks: 4}, ctr)
	g, err := profile.New(profile.Params{StartDelay: 1, Threshold: 0.5, DecayInterval: 64}, ctr, c)
	if err != nil {
		t.Fatal(err)
	}
	c.Bind(g)
	// Long deterministic chain as a big loop.
	seq := []cfg.BlockID{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for r := 0; r < 300; r++ {
		for i := 1; i < len(seq); i++ {
			g.OnDispatch(seq[i-1], seq[i])
		}
		g.OnDispatch(seq[len(seq)-1], seq[0])
	}
	for _, tr := range c.Traces() {
		if tr.Len() > 4 {
			t.Errorf("trace exceeds MaxBlocks: %d blocks", tr.Len())
		}
	}
	if c.NumTraces() == 0 {
		t.Fatal("no traces built")
	}
}

func TestSignalWithoutGraphIsIgnored(t *testing.T) {
	c := NewCache(Config{}, nil)
	// Must not panic without a bound graph.
	c.OnSignal(profile.Signal{})
	if c.NumTraces() != 0 {
		t.Error("unbound cache built traces")
	}
}

func TestExpectedCompletionAboveThreshold(t *testing.T) {
	d := newDriver(t, profile.Params{StartDelay: 1, Threshold: 0.95, DecayInterval: 64})
	d.cycle(500, 1, 2, 3, 4)
	for _, tr := range d.c.Traces() {
		if tr.ExpectedCompletion < 0.95 {
			t.Errorf("trace %v registered with completion estimate %.3f < threshold", tr.Blocks, tr.ExpectedCompletion)
		}
	}
}

func TestConfigDefaults(t *testing.T) {
	c := NewCache(Config{}, nil)
	conf := c.Config()
	if conf.MinBlocks != 2 || conf.MaxBlocks != 64 || conf.MaxBacktrack != 4096 {
		t.Errorf("defaults not applied: %+v", conf)
	}
}

// coverage reports which of the given regions (disjoint block ranges) are
// covered by at least one live trace.
func coverage(c *Cache, lo, hi cfg.BlockID) bool {
	for _, tr := range c.Traces() {
		for _, b := range tr.Blocks {
			if b >= lo && b <= hi {
				return true
			}
		}
	}
	return false
}

func TestBudgetEvictsColdTraceFirst(t *testing.T) {
	d := newDriverConf(t, profile.Params{StartDelay: 1, Threshold: 0.9, DecayInterval: 64}, Config{MaxTraces: 2})
	d.cycle(2000, 1, 2, 3) // hot region: node counters stay high
	if !coverage(d.c, 1, 3) {
		t.Fatal("hot region built no traces")
	}
	d.cycle(60, 11, 12, 13) // cold region: barely enough to trace
	// A third region forces the budget; the cold region must be the victim.
	d.cycle(400, 21, 22, 23)
	if d.ctr.TracesEvicted == 0 || d.ctr.BudgetPressure == 0 {
		t.Fatalf("no eviction under budget: evicted=%d pressure=%d\n%s",
			d.ctr.TracesEvicted, d.ctr.BudgetPressure, d.c.Dump())
	}
	if n := d.c.NumTraces(); n > 2 {
		t.Errorf("%d live traces exceed MaxTraces=2", n)
	}
	if !coverage(d.c, 1, 3) {
		t.Errorf("hot region evicted ahead of the cold one:\n%s", d.c.Dump())
	}
	d.check(t)
}

func TestBlockBudgetBoundsCacheSize(t *testing.T) {
	const budget = 10
	d := newDriverConf(t, profile.Params{StartDelay: 1, Threshold: 0.9, DecayInterval: 64}, Config{MaxCachedBlocks: budget})
	// Several disjoint loops would normally hold ~6 blocks each.
	for base := cfg.BlockID(0); base < 50; base += 10 {
		d.cycle(400, base+1, base+2, base+3)
		if got := d.c.CachedBlocks(); got > budget && d.c.NumTraces() > 1 {
			t.Fatalf("cached blocks %d exceed budget %d", got, budget)
		}
	}
	if d.ctr.TracesEvicted == 0 {
		t.Error("block budget never evicted")
	}
	d.check(t)
}

func TestEvictedHotRegionRebuilds(t *testing.T) {
	// Eviction sheds memory, not the ability to trace: because evict
	// un-acknowledges the entry branch contexts, re-running the region
	// re-signals the cache and the trace comes back without any profiler
	// warm-up from scratch.
	d := newDriverConf(t, profile.Params{StartDelay: 1, Threshold: 0.9, DecayInterval: 64}, Config{MaxTraces: 1})
	d.cycle(400, 1, 2, 3)
	if !coverage(d.c, 1, 3) {
		t.Fatal("region A built no traces")
	}
	d.cycle(400, 11, 12, 13) // region B evicts A's trace (budget 1)
	if coverage(d.c, 1, 3) {
		t.Fatalf("region A survived a MaxTraces=1 budget:\n%s", d.c.Dump())
	}
	if d.ctr.TracesEvicted == 0 {
		t.Fatal("nothing evicted")
	}
	d.cycle(400, 1, 2, 3) // A hot again: must re-signal and rebuild
	if !coverage(d.c, 1, 3) {
		t.Errorf("evicted region never rebuilt its trace:\n%s", d.c.Dump())
	}
	d.check(t)
}

// TestPropertyCacheInvariants drives the profiler+cache with random
// dispatch streams over a small block universe and checks structural
// invariants of the cache afterwards.
func TestPropertyCacheInvariants(t *testing.T) {
	f := func(seed int64, thPick, universe uint8) bool {
		r := rand.New(rand.NewSource(seed))
		ths := []float64{1.0, 0.99, 0.97, 0.9}
		th := ths[int(thPick)%len(ths)]
		n := int(universe%6) + 3
		d := newDriver(t, profile.Params{StartDelay: 1, Threshold: th, DecayInterval: 64})

		// A random walk with a bias toward a ring (so some edges are hot).
		cur := cfg.BlockID(0)
		for i := 0; i < 20000; i++ {
			var next cfg.BlockID
			if r.Intn(10) < 8 {
				next = (cur + 1) % cfg.BlockID(n)
			} else {
				next = cfg.BlockID(r.Intn(n))
			}
			d.g.OnDispatch(cur, next)
			cur = next
		}

		if d.c.CheckInvariants() != nil {
			return false
		}
		conf := d.c.Config()
		for _, tr := range d.c.Traces() {
			if tr.Retired {
				return false // retired traces must not be listed
			}
			if tr.Len() < conf.MinBlocks || tr.Len() > conf.MaxBlocks {
				return false
			}
			if tr.ExpectedCompletion < th-1e-9 {
				return false // registered below the construction threshold
			}
		}
		// Every registered edge resolves to a live trace whose entry block
		// matches the edge's target.
		for from := cfg.BlockID(0); int(from) < n; from++ {
			for to := cfg.BlockID(0); int(to) < n; to++ {
				tr := d.g.Lookup(from, to)
				if tr == nil {
					continue
				}
				if tr.Retired || tr.Entry() != to {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestLoopHeaderHintBoundsBacktracking(t *testing.T) {
	p := profile.Params{StartDelay: 1, Threshold: 0.9, DecayInterval: 64}

	// Without hints, backtracking from any signal runs to the chain root:
	// the only trace entry is the first edge (0,1).
	plain := newDriver(t, p)
	plain.replay(400, 0, 1, 2, 3, 4)
	if plain.g.Lookup(0, 1) == nil {
		t.Fatal("unhinted: no trace entered at chain root")
	}
	if plain.g.Lookup(1, 2) != nil {
		t.Fatal("unhinted: unexpected trace entry at the interior edge (1,2)")
	}

	// With block 2 marked a loop header, backtracking stops at the branch
	// context entering it, so a trace entered at (1,2) must exist.
	hinted := newDriver(t, p)
	hinted.c.SetLoopHeaders([]cfg.BlockID{2})
	hinted.replay(400, 0, 1, 2, 3, 4)
	if hinted.g.Lookup(1, 2) == nil {
		t.Fatalf("hinted: no trace entered at the loop header edge\n%s", hinted.c.Dump())
	}
	hinted.check(t)
	plain.check(t)
}

// markEveryOtherProver is a stub GuardProver: it proves the side exit after
// every even-indexed block dead and records each query it answered.
type markEveryOtherProver struct{ queries [][]cfg.BlockID }

func (p *markEveryOtherProver) ProveGuards(blocks []cfg.BlockID) []bool {
	p.queries = append(p.queries, append([]cfg.BlockID(nil), blocks...))
	proofs := make([]bool, len(blocks)-1)
	for i := range proofs {
		proofs[i] = i%2 == 0
	}
	return proofs
}

func TestRegisterStampsGuardProofsFromProver(t *testing.T) {
	d := newDriver(t, profile.Params{StartDelay: 1, Threshold: 0.9, DecayInterval: 64})
	prover := &markEveryOtherProver{}
	d.c.SetProver(prover)
	d.cycle(400, 1, 2, 3)
	traces := d.c.Traces()
	if len(traces) == 0 {
		t.Fatal("no traces built")
	}
	// The prover is consulted once per newly built trace (retired ones
	// included), never for hash-consed reuses.
	if len(prover.queries) < len(traces) {
		t.Fatalf("prover consulted %d times for %d live traces", len(prover.queries), len(traces))
	}
	for _, tr := range traces {
		if len(tr.GuardProofs) != tr.Len()-1 {
			t.Fatalf("trace %d: %d proofs for %d blocks", tr.ID, len(tr.GuardProofs), tr.Len())
		}
		for i, proven := range tr.GuardProofs {
			if want := i%2 == 0; proven != want {
				t.Fatalf("trace %d: proof %d = %v, want %v", tr.ID, i, proven, want)
			}
		}
		if want := (tr.Len() - 1 + 1) / 2; tr.ProvenGuards() != want {
			t.Fatalf("trace %d: ProvenGuards() = %d, want %d", tr.ID, tr.ProvenGuards(), want)
		}
	}
	d.check(t)
}

func TestRegisterWithoutProverLeavesTracesUnproven(t *testing.T) {
	d := newDriver(t, profile.Params{StartDelay: 1, Threshold: 0.9, DecayInterval: 64})
	d.cycle(400, 1, 2, 3)
	for _, tr := range d.c.Traces() {
		if tr.GuardProofs != nil || tr.ProvenGuards() != 0 {
			t.Fatalf("trace %d carries proofs with no prover attached", tr.ID)
		}
	}
}
