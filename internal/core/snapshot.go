package core

import (
	"fmt"
	"sort"

	"repro/internal/cfg"
	"repro/internal/profile"
	"repro/internal/snapshot"
)

// This file connects the session to the profile-persistence subsystem
// (internal/snapshot): exporting a session's learned state after a run, and
// seeding a fresh session from a previously exported snapshot (warm start).

// ExportSnapshot captures the session's learned state — the BCG, the live
// trace set, and the loop-header anchors — keyed to the given program
// identity. The result aliases nothing in the session and stays valid after
// it ends. Returns nil for unprofiled sessions, which have no learned state.
func (s *Session) ExportSnapshot(programKey, programName string) *snapshot.Snapshot {
	if s.pair == nil {
		return nil
	}
	return s.pair.ExportSnapshot(programKey, programName)
}

// seedSession applies a snapshot to a freshly built session, before the
// machine runs. The caller is responsible for key verification (the snapshot
// names a program; core does not); params are re-checked here because every
// node classification in the snapshot is relative to them.
func seedSession(s *Session, snap *snapshot.Snapshot, params profile.Params) error {
	if snap.Params != params {
		return fmt.Errorf("core: snapshot learned under params %+v cannot seed session with params %+v",
			snap.Params, params)
	}
	s.Graph.SeedNodes(snap.Nodes)
	s.Cache.SetLoopHeaders(snap.LoopHeaders)
	s.Cache.SeedTraces(snap.Traces)
	s.Counters.SnapshotsLoaded++
	return nil
}

// ExportTraces returns the live traces as serializable state: block
// sequences, cut-time completion estimates, and the entry edges each trace
// is registered on. Ordered by trace ID, entry froms ascending, so exports
// are deterministic.
func (c *Cache) ExportTraces() []snapshot.TraceState {
	traces := c.Traces()
	out := make([]snapshot.TraceState, 0, len(traces))
	for _, t := range traces {
		st := snapshot.TraceState{
			Blocks:             append([]cfg.BlockID(nil), t.Blocks...),
			ExpectedCompletion: t.ExpectedCompletion,
		}
		for edge := range c.regs[t] {
			st.EntryFrom = append(st.EntryFrom, cfg.BlockID(edge>>32))
		}
		sort.Slice(st.EntryFrom, func(i, j int) bool { return st.EntryFrom[i] < st.EntryFrom[j] })
		out = append(out, st)
	}
	return out
}

// SeedTraces re-registers snapshot traces whose justification still holds in
// the (seeded) graph: each candidate is re-validated against the live
// correlations exactly like invalidation's stillValid check — the node chain
// must exist, stay correlated, and clear the completion threshold — so a
// snapshot can propose traces but never force one the current graph would
// not itself build. Accepted traces register through the ordinary path
// (hash-consing, pair indexing, budget enforcement) and acknowledge their
// nodes; rejected ones are skipped silently, their regions left
// unacknowledged so a hot region re-signals and rebuilds on demand.
//
// Call after SeedNodes and before the run. Returns the number of traces
// registered.
func (c *Cache) SeedTraces(ts []snapshot.TraceState) int {
	if c.graph == nil {
		return 0
	}
	threshold := c.graph.Params().Threshold
	c.seeding = true
	defer func() { c.seeding = false }()
	seeded := 0
	for i := range ts {
		st := &ts[i]
		if len(st.Blocks) < c.conf.MinBlocks || len(st.Blocks) > c.conf.MaxBlocks {
			continue
		}
		registered := false
		for _, from := range st.EntryFrom {
			nodes := c.nodePath(from, st.Blocks)
			if nodes == nil {
				continue
			}
			p, ok := c.pathProbability(from, st.Blocks)
			if !ok || p < threshold {
				continue
			}
			c.register(nodes, p)
			for _, n := range nodes {
				n.Acknowledge()
			}
			registered = true
		}
		if registered {
			seeded++
			c.ctr.TracesSeededFromSnapshot++
		}
	}
	return seeded
}

// nodePath resolves the chain of branch contexts for a block sequence
// entered via (from, blocks[0]), or nil if any link is missing.
func (c *Cache) nodePath(from cfg.BlockID, blocks []cfg.BlockID) []*profile.Node {
	n := c.graph.Node(from, blocks[0])
	if n == nil {
		return nil
	}
	nodes := make([]*profile.Node, 0, len(blocks))
	nodes = append(nodes, n)
	for i := 1; i < len(blocks); i++ {
		e := n.EdgeTo(blocks[i])
		if e == nil || e.To == nil {
			return nil
		}
		n = e.To
		nodes = append(nodes, n)
	}
	return nodes
}
