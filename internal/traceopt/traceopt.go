// Package traceopt implements the optimization study the paper names as
// its next step (§6): measuring "what further improvement can be achieved
// by applying optimizations to the traces".
//
// A trace is a single-entry straight-line region whose internal branches
// become guards (side exits), which is exactly the shape the paper argues
// is ideal for optimization (§3.7): control flow is resolved, so classic
// forward dataflow runs without merges. The analyzer symbolically executes
// a trace's instruction stream, tracking constant values through the
// operand stack and the local variables, and classifies every instruction:
//
//   - foldable: arithmetic/comparison whose operands are all constants at
//     trace position (constant folding),
//   - propagatable: a local load whose value is a known constant
//     (constant propagation turns it into a constant),
//   - removable guard: an internal conditional branch whose outcome is
//     statically the trace's recorded direction given the constants,
//   - dead store: a local store overwritten before any read and before any
//     guard that could observe it on a side exit.
//
// Method calls inside a trace are optimization barriers: the callee's
// frame is separate, so the symbolic state is cleared (a real trace
// optimizer would inline small callees — Duesterwald & Bruening's result
// that traces inlining small methods are the optimal unit).
//
// The product is a per-trace and per-run OptReport; the harness weights it
// by trace execution counts to estimate the fraction of the executed
// instruction stream that trace-level optimization could remove.
package traceopt

import (
	"fmt"
	"math"

	"repro/internal/bytecode"
	"repro/internal/cfg"
	"repro/internal/trace"
)

// absKind classifies a symbolic value.
type absKind uint8

const (
	unknown absKind = iota
	constInt
	constFloat
	constNull
)

// absVal is a symbolic value; n is the constant's payload in the form
// bytecode.FoldBinary takes (floats as bit patterns).
type absVal struct {
	kind absKind
	n    int64
}

func intConst(n int64) absVal { return absVal{kind: constInt, n: n} }

// constKind maps a verifier value kind to the constant kind carrying it.
func constKind(k bytecode.ValKind) absKind {
	if k == bytecode.KFloat {
		return constFloat
	}
	return constInt
}

// Report summarizes the optimization opportunities of one trace.
type Report struct {
	TraceID int
	Blocks  int

	Instrs          int // total instructions on the trace path
	Foldable        int // const-operand arithmetic/logic/comparisons
	Propagatable    int // local loads of known constants
	RemovableGuards int // internal branches statically resolved
	DeadStores      int // stores overwritten before any read or guard
	Barriers        int // calls/returns that cleared the symbolic state

	// ProvenGuards is the subset of the trace's internal conditional/switch
	// guards whose side exit the whole-program value-flow oracle proved can
	// never fire (trace.GuardProofs, stamped at registration). Unlike
	// RemovableGuards — an estimate from symbolic execution of the recorded
	// path — a proven guard is backed by a static proof that holds for every
	// execution, so removing it needs no deoptimization fallback. Zero when
	// the trace carries no proofs.
	ProvenGuards int
}

// Removable returns the number of instructions the modeled optimizations
// would eliminate or reduce to constants.
func (r Report) Removable() int {
	return r.Foldable + r.Propagatable + r.RemovableGuards + r.DeadStores
}

// Ratio returns Removable as a fraction of the trace's instructions.
func (r Report) Ratio() float64 {
	if r.Instrs == 0 {
		return 0
	}
	return float64(r.Removable()) / float64(r.Instrs)
}

// String renders the report.
func (r Report) String() string {
	return fmt.Sprintf("trace %d: %d instrs, %d foldable, %d propagatable, %d guards removable (%d proven), %d dead stores (%.1f%%)",
		r.TraceID, r.Instrs, r.Foldable, r.Propagatable, r.RemovableGuards, r.ProvenGuards, r.DeadStores, r.Ratio()*100)
}

// Analyzer analyzes traces against a program's CFGs.
type Analyzer struct {
	cfg *cfg.ProgramCFG
}

// New creates an analyzer.
func New(pcfg *cfg.ProgramCFG) *Analyzer { return &Analyzer{cfg: pcfg} }

// state is the symbolic machine state within one frame's view of the trace.
type state struct {
	stack  []absVal
	locals map[int32]absVal

	// Dead-store tracking: for each local, the index (into the trace's
	// instruction classification) of the last store not yet read, valid
	// only until the next guard.
	pendingStore map[int32]int
}

func newState() *state {
	return &state{
		locals:       make(map[int32]absVal),
		pendingStore: make(map[int32]int),
	}
}

func (s *state) push(v absVal) { s.stack = append(s.stack, v) }

func (s *state) pop() absVal {
	if len(s.stack) == 0 {
		// The trace begins mid-computation or crosses a frame boundary;
		// values flowing in are unknown.
		return absVal{}
	}
	v := s.stack[len(s.stack)-1]
	s.stack = s.stack[:len(s.stack)-1]
	return v
}

func (s *state) popN(n int) []absVal {
	out := make([]absVal, n)
	for i := n - 1; i >= 0; i-- {
		out[i] = s.pop()
	}
	return out
}

// reset clears everything (optimization barrier).
func (s *state) reset() {
	s.stack = s.stack[:0]
	s.locals = make(map[int32]absVal)
	s.pendingStore = make(map[int32]int)
}

// guard invalidates dead-store candidates: a side exit may observe them.
func (s *state) guard() {
	s.pendingStore = make(map[int32]int)
}

// Analyze classifies every instruction along the trace's block path.
func (a *Analyzer) Analyze(t *trace.Trace) (Report, error) {
	rep := Report{TraceID: t.ID, Blocks: t.Len()}
	st := newState()
	dead := make(map[int]bool) // instruction indexes that are dead stores
	idx := 0

	for bi, id := range t.Blocks {
		b := a.cfg.Block(id)
		if b == nil {
			return Report{}, fmt.Errorf("traceopt: trace %d references unknown block %d", t.ID, id)
		}
		var next cfg.BlockID = cfg.NoBlock
		if bi+1 < len(t.Blocks) {
			next = t.Blocks[bi+1]
		}
		n := len(b.Instrs)
		for ii, in := range b.Instrs {
			isTerm := ii == n-1
			rep.Instrs++
			a.step(in, st, &rep, dead, idx, isTerm, b, next)
			idx++
		}
		if next != cfg.NoBlock && t.GuardProven(bi) {
			switch b.Kind {
			case bytecode.FlowCond, bytecode.FlowSwitch:
				rep.ProvenGuards++
			}
		}
	}
	for range dead {
		rep.DeadStores++
	}
	return rep, nil
}

// step symbolically executes one instruction.
func (a *Analyzer) step(in bytecode.Instr, st *state, rep *Report, dead map[int]bool, idx int, isTerm bool, b *cfg.Block, next cfg.BlockID) {
	op := in.Op
	info := bytecode.InfoOf(op)

	switch info.Flow {
	case bytecode.FlowCall, bytecode.FlowReturn, bytecode.FlowThrow:
		// Frame boundary (or unwinding): barrier.
		rep.Barriers++
		st.reset()
		return
	case bytecode.FlowGoto, bytecode.FlowHalt:
		// Unconditional: no guard, nothing to optimize.
		st.guard() // conservative: block boundary may still exit via trap
		return
	case bytecode.FlowCond:
		v := st.popN(bytecode.CondArity(op))
		if allConst(v) {
			rep.RemovableGuards++
		} else {
			st.guard()
		}
		_ = next
		return
	case bytecode.FlowSwitch:
		v := st.pop()
		if v.kind == constInt {
			rep.RemovableGuards++
		} else {
			st.guard()
		}
		return
	}

	// Straight-line instruction (or a FlowNext terminator).
	switch op {
	case bytecode.IConst:
		st.push(intConst(int64(in.A)))
	case bytecode.FConst:
		st.push(absVal{kind: constFloat, n: int64(math.Float64bits(in.F))})
	case bytecode.AConstNull:
		st.push(absVal{kind: constNull})
	case bytecode.SConst, bytecode.New, bytecode.NewArray:
		if op == bytecode.NewArray {
			st.pop()
		}
		st.push(absVal{})

	case bytecode.ILoad, bytecode.FLoad, bytecode.ALoad:
		v, known := st.locals[in.A]
		if known && v.kind != unknown {
			rep.Propagatable++
		}
		// The load reads the local: any pending store is live.
		delete(st.pendingStore, in.A)
		if known {
			st.push(v)
		} else {
			st.push(absVal{})
		}

	case bytecode.IStore, bytecode.FStore, bytecode.AStore:
		if prev, ok := st.pendingStore[in.A]; ok {
			// The previous store is overwritten unread and unguarded.
			dead[prev] = true
		}
		st.pendingStore[in.A] = idx
		st.locals[in.A] = st.pop()

	case bytecode.IInc:
		delete(st.pendingStore, in.A)
		if v, ok := st.locals[in.A]; ok && v.kind == constInt {
			st.locals[in.A] = intConst(v.n + int64(in.B))
			rep.Foldable++
		} else {
			st.locals[in.A] = absVal{}
		}

	case bytecode.Pop:
		st.pop()
	case bytecode.Dup:
		v := st.pop()
		st.push(v)
		st.push(v)
	case bytecode.Swap:
		x, y := st.pop(), st.pop()
		st.push(x)
		st.push(y)
	case bytecode.DupX1:
		x, y := st.pop(), st.pop()
		st.push(x)
		st.push(y)
		st.push(x)

	case bytecode.IAdd, bytecode.ISub, bytecode.IMul, bytecode.IDiv, bytecode.IRem,
		bytecode.IShl, bytecode.IShr, bytecode.IUshr, bytecode.IAnd, bytecode.IOr, bytecode.IXor,
		bytecode.FAdd, bytecode.FSub, bytecode.FMul, bytecode.FDiv, bytecode.FRem,
		bytecode.FCmpL, bytecode.FCmpG:
		pops, pushes, _ := bytecode.StackKinds(op)
		r := st.pop()
		l := st.pop()
		if l.kind == constKind(pops[1]) && r.kind == constKind(pops[0]) {
			// ok is false for a constant zero divisor: folding would hide
			// the trap.
			if v, ok := bytecode.FoldBinary(op, l.n, r.n); ok {
				rep.Foldable++
				st.push(absVal{kind: constKind(pushes[0]), n: v})
				return
			}
		}
		st.push(absVal{})

	case bytecode.INeg, bytecode.FNeg, bytecode.I2F, bytecode.F2I:
		pops, pushes, _ := bytecode.StackKinds(op)
		v := st.pop()
		if v.kind == constKind(pops[0]) {
			rep.Foldable++
			st.push(absVal{kind: constKind(pushes[0]), n: bytecode.FoldUnary(op, v.n)})
			return
		}
		st.push(absVal{})

	default:
		// Heap access, string constants, instanceof, arraylength…: consume
		// and produce unknowns using the static stack effect.
		pops := int(info.Pop)
		if pops > 0 {
			st.popN(pops)
		}
		for i := 0; i < int(info.Push); i++ {
			st.push(absVal{})
		}
		// Heap stores can be observed after any exit; they also end dead-
		// store windows conservatively (aliasing with boxed locals is
		// impossible here, but cheap conservatism keeps the claim honest).
		switch op {
		case bytecode.PutField, bytecode.PutStatic, bytecode.IAStore,
			bytecode.FAStore, bytecode.AAStore, bytecode.BAStore:
			st.guard()
		}
	}
}

func allConst(vs []absVal) bool {
	for _, v := range vs {
		if v.kind == unknown {
			return false
		}
	}
	return true
}

// Summary aggregates reports weighted by how often each trace completed,
// estimating the share of the executed trace instruction stream that the
// modeled optimizations would remove, and splitting guard removal into the
// estimated total and the statically proven subset.
type Summary struct {
	Traces            int
	WeightedInstrs    int64
	WeightedRemovable int64

	// Static guard totals across traces: RemovableGuards is the symbolic
	// estimate, ProvenGuards the subset backed by value-flow proofs.
	RemovableGuards int64
	ProvenGuards    int64
}

// Add accumulates one trace's report with its completion count as weight.
func (s *Summary) Add(r Report, completions int64) {
	s.Traces++
	s.WeightedInstrs += int64(r.Instrs) * completions
	s.WeightedRemovable += int64(r.Removable()) * completions
	s.RemovableGuards += int64(r.RemovableGuards)
	s.ProvenGuards += int64(r.ProvenGuards)
}

// Ratio returns the weighted removable fraction.
func (s *Summary) Ratio() float64 {
	if s.WeightedInstrs == 0 {
		return 0
	}
	return float64(s.WeightedRemovable) / float64(s.WeightedInstrs)
}

// ProvenShare returns the fraction of removable guards that carry a static
// proof (0 when no guards are removable).
func (s *Summary) ProvenShare() float64 {
	if s.RemovableGuards == 0 {
		return 0
	}
	return float64(s.ProvenGuards) / float64(s.RemovableGuards)
}

// AnalyzeAll analyzes a set of traces and aggregates them by their observed
// completion counts.
func (a *Analyzer) AnalyzeAll(traces []*trace.Trace) (Summary, []Report, error) {
	var sum Summary
	var reports []Report
	for _, t := range traces {
		r, err := a.Analyze(t)
		if err != nil {
			return Summary{}, nil, err
		}
		reports = append(reports, r)
		sum.Add(r, t.Completed)
	}
	return sum, reports, nil
}
