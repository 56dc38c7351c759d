package analysis

import (
	"repro/internal/analysis/valueflow"
	"repro/internal/bytecode"
	"repro/internal/cfg"
)

// Hints holds the static dataflow facts the dynamic machinery can exploit:
// per-block unique-successor classification (seeding BCG nodes directly in
// the unique state, skipping the start-state delay), loop headers (bounding
// the trace cache's backtracking), and immediate dominators (diagnostics,
// `tracevm lint`). All slices are indexed by global cfg.BlockID.
type Hints struct {
	// UniqueSucc[id] is the single statically known dynamic successor of
	// block id, or cfg.NoBlock when the block has none, several, or any
	// dynamic out-edge (calls, returns, throws, exception coverage).
	UniqueSucc []cfg.BlockID
	// Idom[id] is the immediate dominator of block id within its method, or
	// cfg.NoBlock for method/handler entries and statically unreachable
	// blocks.
	Idom []cfg.BlockID

	loop []bool
}

// NumBlocks returns the number of blocks the hints cover.
func (h *Hints) NumBlocks() int { return len(h.UniqueSucc) }

// IsLoopHeader reports whether the block is the target of a back edge.
func (h *Hints) IsLoopHeader(id cfg.BlockID) bool {
	return int(id) < len(h.loop) && h.loop[id]
}

// LoopHeaders returns every loop-header block in ascending ID order.
func (h *Hints) LoopHeaders() []cfg.BlockID {
	var out []cfg.BlockID
	for id, is := range h.loop {
		if is {
			out = append(out, cfg.BlockID(id))
		}
	}
	return out
}

// UniqueBlocks returns every block with a statically unique successor, in
// ascending ID order.
func (h *Hints) UniqueBlocks() []cfg.BlockID {
	var out []cfg.BlockID
	for id, s := range h.UniqueSucc {
		if s != cfg.NoBlock {
			out = append(out, cfg.BlockID(id))
		}
	}
	return out
}

// ComputeHints runs the dataflow passes over every method CFG: dominators
// (iterative RPO fixpoint with exception-handler entries as extra roots),
// loop headers (back edges b→h where h dominates b), and static successor
// classification.
func ComputeHints(p *cfg.ProgramCFG) *Hints {
	return ComputeHintsWithFacts(p, nil)
}

// ComputeHintsWithFacts is ComputeHints with a value-flow fact table: a
// conditional or switch block whose outcome the facts decided is classified
// unique-successor even though it has several static successors, so the
// profiler seeds its BCG node directly in the unique state. A nil or top
// table reduces to the purely structural classification.
func ComputeHintsWithFacts(p *cfg.ProgramCFG, f *valueflow.Facts) *Hints {
	n := p.NumBlocks()
	h := &Hints{
		UniqueSucc: make([]cfg.BlockID, n),
		Idom:       make([]cfg.BlockID, n),
		loop:       make([]bool, n),
	}
	for i := range h.UniqueSucc {
		h.UniqueSucc[i] = cfg.NoBlock
		h.Idom[i] = cfg.NoBlock
	}
	for _, mc := range p.Methods {
		if mc == nil {
			continue
		}
		hintMethod(h, mc, f)
	}
	return h
}

// Local dominator encoding: block indices within the method, plus a virtual
// super-root above the entry and every handler entry (exception edges are
// dynamic, so handler code has no static predecessor).
const (
	domUndef = -2
	domVRoot = -1
)

func hintMethod(h *Hints, mc *cfg.MethodCFG, f *valueflow.Facts) {
	nb := len(mc.Blocks)
	base := mc.Blocks[0].ID
	local := func(id cfg.BlockID) int { return int(id - base) }

	// Exception coverage: a protected block can transfer to a handler from
	// any instruction, so its dynamic successor set is never singleton.
	covered := make([]bool, nb)
	for _, hd := range mc.Method.Handlers {
		for i, b := range mc.Blocks {
			if covered[i] {
				continue
			}
			for _, in := range b.Instrs {
				if hd.Covers(in.PC) {
					covered[i] = true
					break
				}
			}
		}
	}

	succs := make([][]int, nb)
	preds := make([][]int, nb)
	for i, b := range mc.Blocks {
		for _, s := range b.StaticSuccessors() {
			j := local(s)
			succs[i] = append(succs[i], j)
			preds[j] = append(preds[j], i)
		}
	}

	isRoot := make([]bool, nb)
	isRoot[0] = true
	handlerEntry := make([]bool, nb)
	for _, b := range mc.HandlerEntries() {
		isRoot[local(b.ID)] = true
		handlerEntry[local(b.ID)] = true
	}

	// Reverse postorder from all roots.
	visited := make([]bool, nb)
	post := make([]int, 0, nb)
	var dfs func(int)
	dfs = func(i int) {
		visited[i] = true
		for _, s := range succs[i] {
			if !visited[s] {
				dfs(s)
			}
		}
		post = append(post, i)
	}
	for i := 0; i < nb; i++ {
		if isRoot[i] && !visited[i] {
			dfs(i)
		}
	}
	rpo := make([]int, 0, len(post))
	for i := len(post) - 1; i >= 0; i-- {
		rpo = append(rpo, post[i])
	}
	rpoNum := make([]int, nb)
	for i := range rpoNum {
		rpoNum[i] = -1
	}
	for k, b := range rpo {
		rpoNum[b] = k
	}

	// Cooper–Harvey–Kennedy iterative dominators.
	doms := make([]int, nb)
	for i := range doms {
		doms[i] = domUndef
	}
	for i := range isRoot {
		if isRoot[i] {
			doms[i] = domVRoot
		}
	}
	num := func(x int) int {
		if x == domVRoot {
			return -1
		}
		return rpoNum[x]
	}
	intersect := func(a, b int) int {
		for a != b {
			for num(a) > num(b) {
				a = doms[a]
			}
			for num(b) > num(a) {
				b = doms[b]
			}
		}
		return a
	}
	for changed := true; changed; {
		changed = false
		for _, b := range rpo {
			if isRoot[b] {
				continue
			}
			newIdom := domUndef
			for _, p := range preds[b] {
				if doms[p] == domUndef {
					continue
				}
				if newIdom == domUndef {
					newIdom = p
				} else {
					newIdom = intersect(newIdom, p)
				}
			}
			if newIdom != domUndef && doms[b] != newIdom {
				doms[b] = newIdom
				changed = true
			}
		}
	}

	dominates := func(a, b int) bool {
		for x := b; x != domUndef; x = doms[x] {
			if x == a {
				return true
			}
			if x == domVRoot {
				return false
			}
		}
		return false
	}

	for i, b := range mc.Blocks {
		if doms[i] >= 0 {
			h.Idom[b.ID] = mc.Blocks[doms[i]].ID
		}
		// Back edges mark loop headers.
		if doms[i] != domUndef {
			for _, s := range succs[i] {
				if dominates(s, i) {
					h.loop[mc.Blocks[s].ID] = true
				}
			}
		}
		// Static-successor classification: only intraprocedural terminator
		// kinds qualify; calls, returns, halts, and throws dispatch
		// dynamically, as does anything under an exception handler. Handler
		// entries are excluded too: they are reached by a dynamic edge, so
		// their BCG nodes must observe real successors before committing.
		switch b.Kind {
		case bytecode.FlowNext, bytecode.FlowGoto, bytecode.FlowCond, bytecode.FlowSwitch:
			if covered[i] || handlerEntry[i] {
				break
			}
			if ss := b.StaticSuccessors(); len(ss) == 1 {
				h.UniqueSucc[b.ID] = ss[0]
			} else if d := f.DecidedSucc(b.ID); d != cfg.NoBlock {
				// The fact table proved the branch one-way: pre-seed it.
				h.UniqueSucc[b.ID] = d
			}
		}
	}
}
