package harness

import (
	"fmt"
	"io"
	"math"
	"sync"

	"repro/internal/analysis/valueflow"
	"repro/internal/cfg"
	"repro/internal/core"
	"repro/internal/profile"
	"repro/internal/trace"
	"repro/internal/vm"
)

// This file is the soundness harness for the value-flow analysis: every
// static claim the analysis makes is universally quantified over dynamic
// execution, so each one is differentially checked against the live machine.
// A FactChecker rides the VM's block-entry probe and compares the fact
// table's claims with the actual frame state; CheckTraces cross-checks the
// guard proofs stamped onto traces against the dispatch engine's side-exit
// accounting. A single mismatch is a false proof — an analysis bug — and
// fails the harness.

// maxViolations bounds how many violation messages are retained verbatim;
// beyond it only the count grows (one analysis bug tends to fire on every
// loop iteration).
const maxViolations = 16

// FactChecker is a vm.Probe that checks value-flow claims at every executed
// block entry. It is safe for concurrent probes (one machine probes
// serially, but a checker may be shared across sessions in tests).
type FactChecker struct {
	facts *valueflow.Facts

	mu         sync.Mutex
	checks     int64
	violations []string
	dropped    int64

	// Decided-branch checking: when the previous probed block's terminator
	// was statically decided, the very next probe must land on the decided
	// successor (conditionals and switches never push frames, and traps
	// abort the run, so there is no probe in between).
	haveExpect bool
	expectFrom cfg.BlockID
	expect     cfg.BlockID
}

// NewFactChecker builds a checker over a fact table. A nil or top table
// yields a checker that never flags anything (the table claims nothing).
func NewFactChecker(facts *valueflow.Facts) *FactChecker {
	return &FactChecker{facts: facts}
}

func (c *FactChecker) violate(format string, args ...any) {
	if len(c.violations) < maxViolations {
		c.violations = append(c.violations, fmt.Sprintf(format, args...))
	} else {
		c.dropped++
	}
}

// Probe is the vm.Probe hook. The locals and stack slices alias the live
// frame and are only read.
func (c *FactChecker) Probe(b *cfg.Block, locals, stack []vm.Value) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.haveExpect {
		want, from := c.expect, c.expectFrom
		c.haveExpect = false
		if b.ID != want {
			c.violate("block %d: decided successor is %d, execution took %d", from, want, b.ID)
		}
	}
	bf := c.facts.Block(b.ID)
	if bf == nil {
		return
	}
	c.checks++
	if !bf.Reachable {
		c.violate("block %d executed but proven unreachable", b.ID)
	}
	for _, ic := range bf.IntConsts {
		if int(ic.Slot) >= len(locals) {
			c.violate("block %d: const claim on slot %d outside frame of %d locals", b.ID, ic.Slot, len(locals))
		} else if got := locals[ic.Slot].N; got != ic.Val {
			c.violate("block %d: slot %d proven %d, holds %d", b.ID, ic.Slot, ic.Val, got)
		}
	}
	for _, fc := range bf.FloatConsts {
		if int(fc.Slot) >= len(locals) {
			c.violate("block %d: float claim on slot %d outside frame of %d locals", b.ID, fc.Slot, len(locals))
		} else if got := uint64(locals[fc.Slot].N); got != fc.Bits {
			c.violate("block %d: slot %d proven float %v, holds %v",
				b.ID, fc.Slot, math.Float64frombits(fc.Bits), math.Float64frombits(got))
		}
	}
	for _, slot := range bf.NonNull {
		if int(slot) >= len(locals) {
			c.violate("block %d: non-null claim on slot %d outside frame of %d locals", b.ID, slot, len(locals))
		} else if locals[slot].R == nil {
			c.violate("block %d: slot %d proven non-null, holds null", b.ID, slot)
		}
	}
	for _, sc := range bf.StackConsts {
		if int(sc.Idx) >= len(stack) {
			c.violate("block %d: stack claim at depth %d with only %d operands", b.ID, sc.Idx, len(stack))
		} else if got := stack[sc.Idx].N; got != sc.Val {
			c.violate("block %d: stack slot %d proven %d, holds %d", b.ID, sc.Idx, sc.Val, got)
		}
	}
	if d := c.facts.DecidedSucc(b.ID); d != cfg.NoBlock {
		c.haveExpect = true
		c.expectFrom = b.ID
		c.expect = d
	}
}

// Checks reports how many block entries were checked against a claim set.
func (c *FactChecker) Checks() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.checks
}

// Violations returns the retained violation messages (capped; the count of
// dropped duplicates is appended as a final synthetic entry).
func (c *FactChecker) Violations() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := append([]string(nil), c.violations...)
	if c.dropped > 0 {
		out = append(out, fmt.Sprintf("... and %d more violations", c.dropped))
	}
	return out
}

// CheckTraces cross-checks every trace's guard proofs against its dynamic
// side-exit accounting: a proven-dead guard that fired even once is a false
// proof. Returns one message per violated guard.
func CheckTraces(traces []*trace.Trace) []string {
	var out []string
	for _, t := range traces {
		for i := range t.GuardProofs {
			if t.GuardProofs[i] && i < len(t.SideExits) && t.SideExits[i] > 0 {
				out = append(out, fmt.Sprintf(
					"trace %d: guard after block %d proven dead but side-exited %d times",
					t.ID, t.Blocks[i], t.SideExits[i]))
			}
		}
	}
	return out
}

// SoundnessResult is one workload's differential check, summed over an
// unfused and a fused leg.
type SoundnessResult struct {
	Workload     string
	Checks       int64 // block entries compared against the fact table
	ProvenGuards int   // guard proofs stamped on the final trace cache
	Traces       int   // traces in the final cache
	// CompiledDispatches counts the fused leg's dispatches of fused
	// programs: zero means the tier-2 half of the check tested nothing,
	// which is reported as a violation.
	CompiledDispatches int64
	Violations         []string // empty means every claim held
	Stats              valueflow.Stats
}

// ValueFlowSoundness runs one workload in trace mode twice — every trace on
// its unfused program, then with hot traces promoted to fused programs — with
// the fact checker probing every block entry and the guard oracle stamping
// traces, then cross-checks proofs against side-exit counts. The probe fires
// at every segment entry of either form, so the block-entry constants the
// trace compiler folds are checked at the point they are consumed.
func (s *Suite) ValueFlowSoundness(name string) (SoundnessResult, error) {
	c, err := s.compileWorkload(name)
	if err != nil {
		return SoundnessResult{}, err
	}
	res := SoundnessResult{Workload: name, Stats: c.facts.Stats()}
	// A low promotion threshold compiles hot traces early in a step-bounded
	// run, so the fused leg checks compiled execution rather than warm-up.
	const tierUpDispatches = 4
	for _, conf := range []core.Config{{}, {CompileTraces: true, TierUpDispatches: tierUpDispatches}} {
		checker := NewFactChecker(c.facts)
		sess, err := core.NewSession(c.prog, c.cfg, core.SessionOptions{
			Mode:     core.ModeTrace,
			Params:   profile.Params{StartDelay: DefaultDelay, Threshold: DefaultThreshold, DecayInterval: 256},
			Config:   conf,
			MaxSteps: s.MaxSteps,
			Facts:    c.facts,
			Probe:    checker.Probe,
		})
		if err != nil {
			return SoundnessResult{}, err
		}
		if err := sess.Run(); err != nil && !stepLimited(err) {
			return SoundnessResult{}, fmt.Errorf("harness: soundness %s: %w", name, err)
		}
		traces := sess.Cache.Traces()
		res.Traces, res.ProvenGuards = len(traces), 0
		for _, t := range traces {
			res.ProvenGuards += t.ProvenGuards()
		}
		res.Checks += checker.Checks()
		res.CompiledDispatches += sess.Counters.CompiledDispatches
		res.Violations = append(res.Violations, checker.Violations()...)
		res.Violations = append(res.Violations, CheckTraces(traces)...)
	}
	if res.CompiledDispatches == 0 {
		res.Violations = append(res.Violations, "fused leg dispatched no fused program: the tier-2 check is vacuous")
	}
	return res, nil
}

// VerifyValueFlowSoundness runs the differential check over every workload
// in the suite, writing one summary line each, and returns an error naming
// the first workload whose claims were violated. This is the gate CI runs:
// a failure is an unsoundness bug in the analysis, never flaky.
func (s *Suite) VerifyValueFlowSoundness(w io.Writer) error {
	var failed []string
	for _, name := range s.Workloads {
		res, err := s.ValueFlowSoundness(name)
		if err != nil {
			return err
		}
		status := "ok"
		if len(res.Violations) > 0 {
			status = "FAIL"
			failed = append(failed, res.Workload)
		}
		fmt.Fprintf(w, "%-12s %s: %d checked entries, %d consts, %d decided, %d traces (%d proven guards), %d fused dispatches\n",
			res.Workload, status, res.Checks,
			res.Stats.IntConsts+res.Stats.FloatConsts, res.Stats.Decided,
			res.Traces, res.ProvenGuards, res.CompiledDispatches)
		for _, v := range res.Violations {
			fmt.Fprintf(w, "    violation: %s\n", v)
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("harness: value-flow claims violated on %v", failed)
	}
	return nil
}
