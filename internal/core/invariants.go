package core

import (
	"fmt"

	"repro/internal/cfg"
	"repro/internal/profile"
	"repro/internal/trace"
)

// CheckInvariants verifies the cache's structural invariants and returns the
// first violation found, or nil. It is meant for tests — the cache tests and
// the chaos harness call it after driving the cache hard — and is O(total
// cached blocks), far too slow for the dispatch path.
//
// Checked invariants:
//   - hash-consing uniqueness: every live trace is registered in byKey under
//     exactly its own block-sequence key, and no retired trace is reachable;
//   - node/cache agreement: every registered entry edge's BCG node holds
//     its trace as Entry, and every node with an Entry is a live
//     registration of this cache on that edge — so a merge or a seed that
//     carried another cache's trace pointer onto a node fails here;
//   - every live trace clears the completion threshold it was built under
//     and respects the configured length bounds;
//   - the cached-blocks tally matches the live traces, and both budgets
//     hold (an eviction pass keeps at least the trace that triggered it, so
//     a budget is only ever exceeded while a single trace remains).
func (c *Cache) CheckInvariants() error {
	for key, t := range c.byKey {
		if trace.Key(t.Blocks) != key {
			return fmt.Errorf("core: trace %d hash-consed under foreign key %q", t.ID, key)
		}
		if t.Retired {
			return fmt.Errorf("core: retired trace %d still hash-consed", t.ID)
		}
		if len(c.regs[t]) == 0 {
			return fmt.Errorf("core: hash-consed trace %d has no entry-edge registrations", t.ID)
		}
	}

	blocks, edges := 0, 0
	for t, regs := range c.regs {
		if t.Retired {
			return fmt.Errorf("core: retired trace %d still registered", t.ID)
		}
		if c.byKey[trace.Key(t.Blocks)] != t {
			return fmt.Errorf("core: live trace %d missing from the hash-cons table", t.ID)
		}
		if len(regs) == 0 {
			return fmt.Errorf("core: live trace %d has no entry edges", t.ID)
		}
		if t.Len() < c.conf.MinBlocks || t.Len() > c.conf.MaxBlocks {
			return fmt.Errorf("core: trace %d length %d outside [%d, %d]", t.ID, t.Len(), c.conf.MinBlocks, c.conf.MaxBlocks)
		}
		if c.graph != nil {
			if th := c.graph.Params().Threshold; t.ExpectedCompletion < th-1e-9 {
				return fmt.Errorf("core: trace %d completion estimate %.4f below threshold %.4f", t.ID, t.ExpectedCompletion, th)
			}
		}
		blocks += t.Len()
		edges += len(regs)
		for edge := range regs {
			from, to := cfg.BlockID(edge>>32), cfg.BlockID(edge)
			if to != t.Entry() {
				return fmt.Errorf("core: trace %d registered on edge (%d,%d) that does not enter it", t.ID, from, to)
			}
			if n := c.graph.Node(from, to); n == nil || n.Entry != t {
				return fmt.Errorf("core: node (%d,%d) does not hold its registered trace %d", from, to, t.ID)
			}
		}
	}

	if c.graph != nil {
		var nodeErr error
		entries := 0
		c.graph.Nodes(func(n *profile.Node) {
			if n.Entry == nil {
				return
			}
			entries++
			if nodeErr == nil && !c.regs[n.Entry][trace.EdgeKey(n.X, n.Y)] {
				nodeErr = fmt.Errorf("core: node (%d,%d) holds trace %d, which this cache has not registered there", n.X, n.Y, n.Entry.ID)
			}
		})
		if nodeErr != nil {
			return nodeErr
		}
		if entries != edges {
			return fmt.Errorf("core: %d nodes hold an entry trace, registrations hold %d", entries, edges)
		}
	}

	if blocks != c.blocks {
		return fmt.Errorf("core: cached-blocks tally %d, live traces hold %d", c.blocks, blocks)
	}
	if c.conf.MaxTraces > 0 && len(c.regs) > c.conf.MaxTraces && len(c.regs) > 1 {
		return fmt.Errorf("core: %d live traces exceed the budget of %d", len(c.regs), c.conf.MaxTraces)
	}
	if c.conf.MaxCachedBlocks > 0 && c.blocks > c.conf.MaxCachedBlocks && len(c.regs) > 1 {
		return fmt.Errorf("core: %d cached blocks exceed the budget of %d", c.blocks, c.conf.MaxCachedBlocks)
	}
	return nil
}
