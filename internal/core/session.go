package core

import (
	"fmt"
	"io"
	"sync/atomic"

	"repro/internal/analysis"
	"repro/internal/analysis/valueflow"
	"repro/internal/cfg"
	"repro/internal/classfile"
	"repro/internal/obs"
	"repro/internal/profile"
	"repro/internal/snapshot"
	"repro/internal/stats"
	"repro/internal/vm"
)

// Mode selects the dispatch/profiling configuration of a Session.
type Mode uint8

const (
	// ModePlain runs the threaded interpreter with no profiler — the
	// baseline of Table VI.
	ModePlain Mode = iota
	// ModeInstr runs the per-instruction dispatch engine (Figure 1): one
	// dispatch per bytecode instruction, no profiler, no traces. It exists
	// for the dispatch-granularity comparison.
	ModeInstr
	// ModeProfile runs the threaded interpreter with the BCG profiler but
	// never dispatches traces (the cache still constructs them) — the
	// "profiler" column of Table VI and the measurement substrate of the
	// trace-quality tables when trace dispatch should not perturb anything.
	ModeProfile
	// ModeTrace runs the full system: profiling, trace construction, and
	// trace dispatch with full in-trace profiling (measurement mode).
	ModeTrace
	// ModeTraceDeploy is ModeTrace with a single profiler hook per trace
	// dispatch (deployment mode), the configuration Table VII models.
	ModeTraceDeploy
)

// Profiled reports whether the mode attaches the BCG profiler and therefore
// constructs traces — the modes the serving layer's churn breaker governs.
func (m Mode) Profiled() bool { return m != ModePlain && m != ModeInstr }

func (m Mode) String() string {
	switch m {
	case ModePlain:
		return "plain"
	case ModeInstr:
		return "instr"
	case ModeProfile:
		return "profile"
	case ModeTrace:
		return "trace"
	case ModeTraceDeploy:
		return "trace-deploy"
	}
	return "invalid"
}

// Session assembles the full system around one program run: the execution
// engine, the branch correlation graph profiler, and the trace cache.
type Session struct {
	Mode     Mode
	Machine  *vm.Machine
	Graph    *profile.Graph
	Cache    *Cache
	Counters *stats.Counters

	// pair is the profiling pair behind Graph and Cache (nil when
	// unprofiled): the caller's shard, or one private to this session.
	pair *Profiler
}

// SessionOptions configures NewSession.
type SessionOptions struct {
	Mode     Mode
	Params   profile.Params // profiler parameters (zero value: DefaultParams)
	Config   Config         // trace constructor configuration
	Out      io.Writer      // program output (default: discard)
	MaxSteps int64          // instruction budget, 0 = unlimited
	// Interrupt, if set, cancels the run at the next block boundary when
	// stored true; the machine stops with a TrapInterrupted trap. Used by
	// the serving layer to enforce per-request deadlines.
	Interrupt *atomic.Bool
	// WrapHook, if set, wraps (or, in unprofiled modes, supplies) the
	// machine's dispatch hook. This is the fault-injection seam: the chaos
	// harness uses it to delay or perturb the dispatch stream. Production
	// paths leave it nil and pay nothing.
	WrapHook func(vm.DispatchHook) vm.DispatchHook
	// Hints, if set, carries static dataflow facts (analysis.ComputeHints):
	// blocks with exactly one static successor seed their BCG nodes
	// pre-classified unique, and loop headers bound trace-cache
	// backtracking. Nil keeps the paper's purely dynamic baseline.
	Hints *analysis.Hints
	// Facts, if set, carries whole-program value-flow facts
	// (valueflow.Compute): a guard oracle built from them stamps every
	// newly registered trace with proofs of never-firing side-exit guards
	// (trace.GuardProofs). Pair with ComputeHintsWithFacts-derived Hints to
	// also pre-seed decided branches. Ignored when Profiler is set — a
	// shard's prover persists with the shard (see serve's epoch manager).
	Facts *valueflow.Facts
	// Probe, if set, is called at every block entry with the live frame
	// state (vm.Options.Probe). This is the differential-checking seam the
	// value-flow soundness harness uses; production paths leave it nil.
	Probe vm.Probe
	// Sink, if set, receives the run's observability events: BCG node state
	// transitions and trace build/reuse/retire/evict. An attached sink with
	// no transitions in flight costs the dispatch path nothing.
	Sink obs.Sink
	// Snapshot, if set, warm-starts the session from previously learned
	// state: BCG nodes come back pre-classified, snapshot traces that still
	// clear the completion threshold are registered before the first
	// dispatch, and loop-header anchors are restored. The caller must have
	// verified the snapshot's program key; params are re-checked here and a
	// mismatch fails session construction. Ignored in unprofiled modes.
	Snapshot *snapshot.Snapshot
	// Profiler, if set, attaches the session to a persistent profiling pair
	// (a worker shard) instead of building a fresh graph and cache: learned
	// state and arenas carry over from previous runs, and the pair is
	// rebound to this session's counters and sink. The profiler's own
	// parameters govern the run — Params, Config and Hints are ignored, and
	// Snapshot seeds only a profiler that holds no state yet. The caller
	// must serialize sessions sharing one Profiler. Ignored in unprofiled
	// modes.
	Profiler *Profiler
}

// NewSession builds a session over a linked program and its CFGs.
func NewSession(prog *classfile.Program, pcfg *cfg.ProgramCFG, opts SessionOptions) (*Session, error) {
	if pcfg == nil {
		return nil, fmt.Errorf("core: session needs the program's CFG")
	}
	ctr := &stats.Counters{}
	s := &Session{Mode: opts.Mode, Counters: ctr}

	mopts := vm.Options{
		Out:       opts.Out,
		Counters:  ctr,
		MaxSteps:  opts.MaxSteps,
		Interrupt: opts.Interrupt,
		Probe:     opts.Probe,
	}
	if opts.Mode != ModePlain && opts.Mode != ModeInstr {
		p := opts.Profiler
		if p == nil {
			// Private pair: built exactly as a shard is, with the prover and
			// compile environment a shard's owner would attach itself.
			var err error
			p, err = NewProfiler(opts.Params, opts.Config, opts.Hints, pcfg.NumBlocks())
			if err != nil {
				return nil, err
			}
			if opts.Facts != nil {
				p.SetProver(valueflow.NewOracle(opts.Facts, pcfg))
			}
			p.EnableCompile(pcfg, opts.Facts, nil)
		}
		// Attach to the pair, rebinding its accounting to this run. Its
		// params govern the session, never opts.Params.
		p.SetCounters(ctr)
		if opts.Sink != nil {
			p.SetSink(opts.Sink)
		}
		s.pair, s.Graph, s.Cache = p, p.Graph, p.Cache
		// A shard that already holds live learned state must not have a
		// stale warm snapshot layered over it.
		if opts.Snapshot != nil && !p.Seeded() {
			if err := seedSession(s, opts.Snapshot, p.params); err != nil {
				return nil, err
			}
		}
		mopts.Hook = p.Graph
		if opts.Mode == ModeTrace || opts.Mode == ModeTraceDeploy {
			mopts.Traces = p.Cache
			mopts.HookInsideTraces = opts.Mode == ModeTrace
			if p.Cache.CompileEnabled() {
				mopts.Tiering = p.Cache
			}
		}
	}
	if opts.WrapHook != nil {
		mopts.Hook = opts.WrapHook(mopts.Hook)
	}
	m, err := vm.New(prog, pcfg, mopts)
	if err != nil {
		return nil, err
	}
	s.Machine = m
	return s, nil
}

// Run executes the program.
func (s *Session) Run() error {
	if s.Graph != nil {
		s.Graph.ResetContext()
	}
	if s.Mode == ModeInstr {
		return s.Machine.RunInstrMode()
	}
	return s.Machine.Run()
}

// Metrics returns the derived dependent values of the run so far.
func (s *Session) Metrics() stats.Metrics { return s.Counters.Derive() }
