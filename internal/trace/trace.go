// Package trace defines the runtime representation of a trace: a sequence
// of basic blocks expected to execute back-to-back, dispatched as a single
// unit. The trace-construction algorithm lives in internal/core; this
// package holds only the representation and the accounting the dispatch
// engine records per trace, so that the VM and the trace cache can share it
// without an import cycle.
package trace

import (
	"fmt"
	"strings"

	"repro/internal/cfg"
)

// Trace is a dispatchable block sequence. The entry block is Blocks[0];
// execution is guarded, so after each block the engine compares the actual
// successor with the next recorded block and side-exits on mismatch.
type Trace struct {
	ID     int
	Blocks []cfg.BlockID

	// ExpectedCompletion is the completion probability the constructor
	// estimated from branch correlations when the trace was cut.
	ExpectedCompletion float64

	// Accounting, maintained by the dispatch engine.
	Entered   int64
	Completed int64
	SideExits []int64 // per inter-block position: exits after Blocks[i]

	// Retired marks traces that have been replaced; the cache unregisters
	// them, so the engine never dispatches a retired trace.
	Retired bool

	// Program is the trace's executable form, built by the engine on the
	// trace's first execution (Lower over the resolved blocks). Valid only
	// for the ProgramCFG the trace was built against (a trace never
	// outlives its session).
	Program *Program

	// GuardProofs marks side-exit guards proven dead by static value-flow
	// analysis: GuardProofs[i] claims SideExits[i] can never fire, so a
	// specializer may drop the guard after Blocks[i]. Nil when no oracle
	// was attached; otherwise len(Blocks)-1, set once at registration and
	// immutable afterwards.
	GuardProofs []bool
}

// ProvenGuards counts the side-exit guards proven dead.
func (t *Trace) ProvenGuards() int {
	n := 0
	for _, p := range t.GuardProofs {
		if p {
			n++
		}
	}
	return n
}

// GuardProven reports whether the side-exit guard after Blocks[i] is proven
// dead.
func (t *Trace) GuardProven(i int) bool {
	return i >= 0 && i < len(t.GuardProofs) && t.GuardProofs[i]
}

// New creates a trace over the given block sequence.
func New(id int, blocks []cfg.BlockID, expectedCompletion float64) *Trace {
	return &Trace{
		ID:                 id,
		Blocks:             blocks,
		ExpectedCompletion: expectedCompletion,
		SideExits:          make([]int64, len(blocks)),
	}
}

// Entry returns the trace's entry block.
func (t *Trace) Entry() cfg.BlockID { return t.Blocks[0] }

// Len returns the trace length in blocks.
func (t *Trace) Len() int { return len(t.Blocks) }

// CompletionRate returns the observed completion rate so far (0 if never
// entered).
func (t *Trace) CompletionRate() float64 {
	if t.Entered == 0 {
		return 0
	}
	return float64(t.Completed) / float64(t.Entered)
}

// Key returns a canonical string key for hash-consing block sequences.
func Key(blocks []cfg.BlockID) string {
	var b strings.Builder
	for i, id := range blocks {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", id)
	}
	return b.String()
}

// String renders the trace for diagnostics.
func (t *Trace) String() string {
	return fmt.Sprintf("trace %d len=%d p=%.3f entered=%d completed=%d [%s]",
		t.ID, t.Len(), t.ExpectedCompletion, t.Entered, t.Completed, Key(t.Blocks))
}

// Source is what the dispatch engine consults at every dispatch edge: the
// trace registered on the edge from→to (to is the trace's entry block), or
// nil. Traces are edge-keyed because in a threaded interpreter the dispatch
// site lives at the end of the predecessor block — patching it links exactly
// one (from, to) pair to a trace — and because the branch correlation that
// justifies the trace is conditioned on the arrival edge. Implemented by
// the trace cache in internal/core and by the baseline selectors.
type Source interface {
	Lookup(from, to cfg.BlockID) *Trace
}

// EdgeKey packs a dispatch edge into a map key.
func EdgeKey(from, to cfg.BlockID) uint64 { return uint64(from)<<32 | uint64(to) }

// MapSource is a trivial Source backed by an edge-keyed map, used by tests
// and by baseline selectors that do not need invalidation machinery.
type MapSource map[uint64]*Trace

// Lookup implements Source.
func (m MapSource) Lookup(from, to cfg.BlockID) *Trace { return m[EdgeKey(from, to)] }

// Register binds a trace to an entry edge.
func (m MapSource) Register(from, to cfg.BlockID, t *Trace) { m[EdgeKey(from, to)] = t }
