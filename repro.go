// Package repro is the public API of the trace-cache virtual machine, a
// reproduction of "Dynamic Profiling and Trace Cache Generation for a Java
// Virtual Machine" (Berndl & Hendren, CGO 2003).
//
// The system has three layers, all reachable from here:
//
//   - A JVM-style bytecode virtual machine with a MiniJava compiler frontend
//     (CompileMiniJava) and a textual assembler (Assemble).
//   - A branch correlation graph profiler attached to the interpreter's
//     block-dispatch path.
//   - A trace cache that turns profiler signals into dispatchable traces cut
//     at a configurable expected completion probability.
//
// Quick start:
//
//	prog, err := repro.CompileMiniJava(src)
//	vm, err := repro.NewVM(prog, repro.WithMode(repro.ModeTrace), repro.WithOutput(os.Stdout))
//	err = vm.Run()
//	fmt.Println(vm.Metrics().Coverage)
package repro

import (
	"errors"
	"fmt"
	"io"
	"io/fs"

	"repro/internal/cfg"
	"repro/internal/classfile"
	"repro/internal/core"
	"repro/internal/jasm"
	"repro/internal/minijava"
	"repro/internal/obs"
	"repro/internal/profile"
	"repro/internal/serve"
	"repro/internal/snapshot"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Program is a linked, executable program.
type Program = classfile.Program

// Counters is the raw execution event record of a run.
type Counters = stats.Counters

// Metrics are the derived dependent values (§5.2 of the paper): average
// completed-trace length, instruction stream coverage, completion rate,
// signal rate, and trace event interval.
type Metrics = stats.Metrics

// Mode selects the dispatch configuration.
type Mode = core.Mode

// Dispatch modes.
const (
	// ModePlain is the unprofiled threaded interpreter.
	ModePlain = core.ModePlain
	// ModeInstr is the per-instruction dispatch engine (Figure 1 model).
	ModeInstr = core.ModeInstr
	// ModeProfile profiles and builds traces but never dispatches them.
	ModeProfile = core.ModeProfile
	// ModeTrace dispatches traces with full in-trace profiling
	// (measurement fidelity).
	ModeTrace = core.ModeTrace
	// ModeTraceDeploy dispatches traces with one profiler hook per trace
	// (deployment overhead model).
	ModeTraceDeploy = core.ModeTraceDeploy
)

// CompileMiniJava compiles MiniJava source into a linked program. The entry
// point is the unique "static void main()".
func CompileMiniJava(src string) (*Program, error) { return minijava.Compile(src) }

// Assemble assembles jasm assembler source into a linked program.
func Assemble(src string) (*Program, error) { return jasm.Assemble(src) }

// LoadModule reads a serialized module and links it.
func LoadModule(r io.Reader) (*Program, error) {
	p, err := classfile.Read(r)
	if err != nil {
		return nil, err
	}
	if err := p.Link(); err != nil {
		return nil, err
	}
	return p, nil
}

// SaveModule serializes a program in module format.
func SaveModule(w io.Writer, p *Program) error { return classfile.Write(w, p) }

// WorkloadNames lists the built-in benchmark programs.
func WorkloadNames() []string { return workload.Names() }

// WorkloadSource returns the MiniJava source of a built-in benchmark.
func WorkloadSource(name string) (string, error) {
	w, err := workload.ByName(name)
	if err != nil {
		return "", err
	}
	return w.Source, nil
}

// Params collects every tuning knob of the system in one value: the three
// profiler parameters of the paper (§4), the trace-cache budgets, and the
// serving layer's churn breaker. Zero-valued fields mean "keep the
// default", so a partial literal overrides only what it names:
//
//	vm, err := repro.NewVM(prog, repro.WithParams(repro.Params{Threshold: 0.9}))
type Params struct {
	// Threshold is the trace completion threshold (default 0.97).
	Threshold float64
	// StartDelay is the start-state delay in branch executions (default 64).
	StartDelay int32
	// DecayInterval is the decay period in node executions (default 256).
	DecayInterval uint32
	// MaxTraces bounds the live traces per session (default 0 = unbounded).
	MaxTraces int
	// MaxCachedBlocks bounds the total blocks held by live traces per
	// session (default 0 = unbounded).
	MaxCachedBlocks int
	// CompileTraces enables tier-2 execution: hot traces are compiled into
	// superinstruction form and dispatched as fused units (default off).
	CompileTraces bool
	// TierUpDispatches is the dispatch count at which a cached trace is
	// promoted to its compiled form (default 16 when CompileTraces is set;
	// 0 keeps the default).
	TierUpDispatches int64
	// TierDownGuardExits is the compiled-guard-exit count at which a
	// trace's compiled form is discarded again (default 8 when
	// CompileTraces is set; 0 keeps the default).
	TierDownGuardExits int64
	// Breaker tunes the per-program churn circuit breaker. It only takes
	// effect through ServiceConfig (a single VM has no breaker).
	Breaker BreakerConfig
	// SnapshotPath names a profile snapshot file for warm starts. When the
	// file exists, NewVM seeds the profiler and trace cache from it before
	// the first dispatch; a missing file is a silent cold start, while a
	// file that fails to decode, belongs to a different program, or was
	// recorded under different profiler parameters is an error. Write the
	// file with VM.SaveSnapshot. Ignored in unprofiled modes.
	SnapshotPath string
}

// DefaultParams returns the paper's configuration: threshold 0.97, start
// delay 64, decay interval 256, unbounded cache budgets, breaker disabled.
func DefaultParams() Params {
	d := profile.DefaultParams()
	return Params{Threshold: d.Threshold, StartDelay: d.StartDelay, DecayInterval: d.DecayInterval}
}

// ServiceConfig seeds a service configuration from the parameters: the
// cache budgets and breaker map directly; the per-run profiler fields
// (threshold, delay, decay) travel on each ServiceRequest instead.
func (p Params) ServiceConfig() ServiceConfig {
	return ServiceConfig{
		TraceCache: core.Config{
			MaxTraces:          p.MaxTraces,
			MaxCachedBlocks:    p.MaxCachedBlocks,
			CompileTraces:      p.CompileTraces,
			TierUpDispatches:   p.TierUpDispatches,
			TierDownGuardExits: p.TierDownGuardExits,
		},
		Breaker: p.Breaker,
	}
}

// Option configures NewVM.
type Option func(*config)

type config struct {
	mode     Mode
	params   profile.Params
	cache    core.Config
	out      io.Writer
	maxSteps int64
	events   int
	snapPath string
}

// WithMode selects the dispatch mode (default ModeTrace).
func WithMode(m Mode) Option { return func(c *config) { c.mode = m } }

// WithParams overrides the tuning parameters. Zero-valued fields keep
// whatever is already configured, so options compose field-wise and later
// options win for the fields they set.
func WithParams(p Params) Option {
	return func(c *config) {
		if p.Threshold != 0 {
			c.params.Threshold = p.Threshold
		}
		if p.StartDelay != 0 {
			c.params.StartDelay = p.StartDelay
		}
		if p.DecayInterval != 0 {
			c.params.DecayInterval = p.DecayInterval
		}
		if p.MaxTraces != 0 {
			c.cache.MaxTraces = p.MaxTraces
		}
		if p.MaxCachedBlocks != 0 {
			c.cache.MaxCachedBlocks = p.MaxCachedBlocks
		}
		if p.CompileTraces {
			c.cache.CompileTraces = true
		}
		if p.TierUpDispatches != 0 {
			c.cache.TierUpDispatches = p.TierUpDispatches
		}
		if p.TierDownGuardExits != 0 {
			c.cache.TierDownGuardExits = p.TierDownGuardExits
		}
		if p.SnapshotPath != "" {
			c.snapPath = p.SnapshotPath
		}
	}
}

// WithOutput directs program output (default: discarded).
func WithOutput(w io.Writer) Option { return func(c *config) { c.out = w } }

// WithMaxSteps bounds executed instructions (default: unlimited).
func WithMaxSteps(n int64) Option { return func(c *config) { c.maxSteps = n } }

// WithEventTrace attaches a fixed-capacity event ring to the VM: BCG node
// state transitions and trace build/reuse/retire/evict land in it as typed
// events, readable with Events. Capacity <= 0 disables tracing. An
// enabled-but-idle ring adds nothing to the dispatch path.
func WithEventTrace(capacity int) Option { return func(c *config) { c.events = capacity } }

// VM is a configured virtual machine for one program.
type VM struct {
	session *core.Session
	ring    *obs.Ring
	prog    *Program
}

// NewVM builds a machine (and, depending on the mode, the profiler and
// trace cache) for a linked program.
func NewVM(prog *Program, opts ...Option) (*VM, error) {
	c := config{mode: ModeTrace, params: profile.DefaultParams()}
	for _, o := range opts {
		o(&c)
	}
	pcfg, err := cfg.BuildProgram(prog)
	if err != nil {
		return nil, err
	}
	sopts := core.SessionOptions{
		Mode:     c.mode,
		Params:   c.params,
		Config:   c.cache,
		Out:      c.out,
		MaxSteps: c.maxSteps,
	}
	var ring *obs.Ring
	if c.events > 0 {
		ring = obs.NewRing(c.events)
		sopts.Sink = ring
	}
	if c.snapPath != "" && c.mode.Profiled() {
		warm, err := loadSnapshot(c.snapPath, prog, c.params)
		if err != nil {
			return nil, err
		}
		if warm != nil {
			sopts.Snapshot = warm
			emitSnapshotEvent(ring, obs.EvSnapshotLoaded, int64(len(warm.Nodes)))
		}
	}
	s, err := core.NewSession(prog, pcfg, sopts)
	if err != nil {
		return nil, err
	}
	return &VM{session: s, ring: ring, prog: prog}, nil
}

// loadSnapshot reads a warm-start snapshot for prog: a missing file is a
// cold start (nil, nil), everything else that fails to load is an error.
func loadSnapshot(path string, prog *Program, params profile.Params) (*snapshot.Snapshot, error) {
	s, err := snapshot.Load(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("repro: snapshot %s: %w", path, err)
	}
	key, err := snapshot.ProgramKey(prog)
	if err != nil {
		return nil, err
	}
	if err := s.VerifyKey(key); err != nil {
		return nil, fmt.Errorf("repro: snapshot %s: %w", path, err)
	}
	if s.Params != params {
		return nil, fmt.Errorf("repro: snapshot %s: recorded under different profiler parameters (threshold %.3f, delay %d, decay %d)",
			path, s.Params.Threshold, s.Params.StartDelay, s.Params.DecayInterval)
	}
	return s, nil
}

func emitSnapshotEvent(ring *obs.Ring, typ obs.EventType, val int64) {
	ring.Emit(obs.Event{
		Type: typ,
		X:    obs.NoID, Y: obs.NoID, TraceID: obs.NoID,
		Val: val,
	})
}

// SaveSnapshot writes the machine's learned profile — BCG node states and
// counters, the live trace set, loop-header anchors — to path as a
// tracevm/snapshot/v1 file, committed atomically. A later NewVM for the same
// program with Params.SnapshotPath pointing at the file warm-starts from it.
// It fails in unprofiled modes, which have no profile to save.
func (v *VM) SaveSnapshot(path string) error {
	if v.session.Graph == nil {
		return fmt.Errorf("repro: mode %s has no profile to snapshot", v.session.Mode)
	}
	key, err := snapshot.ProgramKey(v.prog)
	if err != nil {
		return err
	}
	snap := v.session.ExportSnapshot(key, "")
	if err := snapshot.Save(path, snap); err != nil {
		return err
	}
	emitSnapshotEvent(v.ring, obs.EvSnapshotSaved, int64(len(snap.Nodes)))
	return nil
}

// Run executes the program to completion.
func (v *VM) Run() error { return v.session.Run() }

// Counters returns the raw event counters accumulated so far.
func (v *VM) Counters() *Counters { return v.session.Counters }

// Metrics returns the derived dependent values.
func (v *VM) Metrics() Metrics { return v.session.Metrics() }

// Events returns the newest n observability events, oldest first. It
// returns nil unless the VM was built with WithEventTrace.
func (v *VM) Events(n int) []Event {
	if v.ring == nil {
		return nil
	}
	return v.ring.Tail(nil, n)
}

// EventRing exposes the underlying ring (nil without WithEventTrace), for
// callers that want filtered tails or live totals.
func (v *VM) EventRing() *obs.Ring { return v.ring }

// TraceInfo summarizes one cached trace.
type TraceInfo struct {
	ID                 int
	Blocks             int
	ExpectedCompletion float64
	Entered            int64
	Completed          int64
	// Tier is the trace's current execution tier: 1 (block-by-block) or 2
	// (compiled superinstruction form).
	Tier int
	// ProvenGuards counts side-exit guards statically proven dead.
	ProvenGuards int
	// CompiledEntered counts dispatches served by the compiled form.
	CompiledEntered int64
	// CompiledGuardExits counts guard exits taken out of the compiled form.
	CompiledGuardExits int64
}

// Traces lists the live traces in the cache (nil in ModePlain).
func (v *VM) Traces() []TraceInfo {
	if v.session.Cache == nil {
		return nil
	}
	var out []TraceInfo
	for _, t := range v.session.Cache.Traces() {
		out = append(out, TraceInfo{
			ID:                 t.ID,
			Blocks:             t.Len(),
			ExpectedCompletion: t.ExpectedCompletion,
			Entered:            t.Entered,
			Completed:          t.Completed,
			Tier:               t.Tier(),
			ProvenGuards:       t.ProvenGuards(),
			CompiledEntered:    t.CompiledEntered,
			CompiledGuardExits: t.CompiledGuardExits,
		})
	}
	return out
}

// DumpBCG renders the branch correlation graph as Graphviz DOT, keeping
// only nodes executed at least minTotal times. Empty in ModePlain.
func (v *VM) DumpBCG(minTotal int) string {
	if v.session.Graph == nil {
		return ""
	}
	return v.session.Graph.DumpDOT(minTotal)
}

// NumBCGNodes reports the number of branch contexts discovered (0 in
// ModePlain).
func (v *VM) NumBCGNodes() int {
	if v.session.Graph == nil {
		return 0
	}
	return v.session.Graph.NumNodes()
}

// Service is the concurrent multi-session execution service: a shared
// program registry (compile once, run many), a bounded worker pool with
// backpressure and per-request deadlines, and aggregated metrics across
// every completed session. cmd/tracevmd serves it over HTTP.
type Service = serve.Service

// ServiceConfig sizes and governs a Service: workers, queue depth, default
// timeout, step cap, trace-cache budgets, the churn circuit breaker, and
// panic quarantine.
type ServiceConfig = serve.Config

// BreakerConfig tunes the per-program churn circuit breaker.
type BreakerConfig = serve.BreakerConfig

// ServiceRequest is one execution order submitted to a Service.
type ServiceRequest = serve.Request

// ServiceResponse is one completed run.
type ServiceResponse = serve.Response

// ServiceSnapshot is a point-in-time copy of a Service's aggregated
// metrics.
type ServiceSnapshot = serve.Snapshot

// SourceKind selects the frontend for ServiceRequest.Source.
type SourceKind = serve.SourceKind

// Source kinds.
const (
	SourceMiniJava = serve.KindMiniJava
	SourceJasm     = serve.KindJasm
)

// Service submission errors.
var (
	// ErrQueueFull is the service's backpressure signal.
	ErrQueueFull = serve.ErrQueueFull
	// ErrServiceClosed reports submission to a draining/closed service.
	ErrServiceClosed = serve.ErrClosed
	// ErrQuarantined reports a program refused after repeated VM panics.
	ErrQuarantined = serve.ErrQuarantined
)

// NewService starts a concurrent execution service. Submit with Do from
// any number of goroutines; Close drains it.
func NewService(cfg ServiceConfig) *Service { return serve.New(cfg) }

// Event is one typed observability record: a BCG node state transition, a
// trace lifecycle step, or (in a Service) a breaker/quarantine/queue event.
type Event = obs.Event

// EventType discriminates observability events.
type EventType = obs.EventType

// Event types.
const (
	EvNodeState      = obs.EvNodeState
	EvTraceBuilt     = obs.EvTraceBuilt
	EvTraceReused    = obs.EvTraceReused
	EvTraceRetired   = obs.EvTraceRetired
	EvTraceEvicted   = obs.EvTraceEvicted
	EvBreaker        = obs.EvBreaker
	EvQuarantine     = obs.EvQuarantine
	EvQueueSaturated = obs.EvQueueSaturated
	EvDemoted        = obs.EvDemoted
	// Snapshot lifecycle (profile persistence).
	EvSnapshotSaved    = obs.EvSnapshotSaved
	EvSnapshotLoaded   = obs.EvSnapshotLoaded
	EvSnapshotRejected = obs.EvSnapshotRejected
)

// ParseEventType maps a wire name like "trace-built" back to its type.
func ParseEventType(s string) (EventType, bool) { return obs.ParseEventType(s) }

// Verify runs quick internal consistency checks over the run's counters and
// trace accounting; it is primarily a debugging aid.
func (v *VM) Verify() error {
	c := v.session.Counters
	if c.TracesCompleted > c.TracesEntered {
		return fmt.Errorf("repro: completed traces (%d) exceed entered (%d)", c.TracesCompleted, c.TracesEntered)
	}
	if c.InstrsInCompletedTraces > c.InstrsInTraces {
		return fmt.Errorf("repro: completed-trace instructions exceed in-trace instructions")
	}
	if c.InstrsInTraces > c.Instrs {
		return fmt.Errorf("repro: in-trace instructions exceed total instructions")
	}
	return nil
}
