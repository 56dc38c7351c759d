package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/profile"
	"repro/internal/replay"
	"repro/internal/stats"
	"repro/internal/vm"
)

// Sentinel errors of the request path.
var (
	// ErrQueueFull is the backpressure signal: the request queue is at
	// capacity and the request was refused without queueing. Callers
	// should shed load or retry with delay.
	ErrQueueFull = errors.New("serve: request queue full")
	// ErrClosed means the service is draining or closed.
	ErrClosed = errors.New("serve: service closed")
	// ErrQuarantined means the program has panicked the VM too many times
	// and the service refuses to run it again.
	ErrQuarantined = errors.New("serve: program quarantined after repeated panics")
)

// Config sizes a Service.
type Config struct {
	// Workers is the number of concurrent sessions (default GOMAXPROCS).
	Workers int
	// QueueDepth bounds the pending-request queue beyond the running
	// sessions (default 4×Workers). A full queue rejects with
	// ErrQueueFull rather than blocking the submitter.
	QueueDepth int
	// DefaultTimeout applies to requests that set none (0 = no deadline).
	DefaultTimeout time.Duration
	// MaxSteps is a hard per-request instruction cap; request budgets are
	// clamped to it (0 = unlimited).
	MaxSteps int64
	// TraceCache configures every session's trace constructor; its
	// MaxTraces/MaxCachedBlocks budgets bound per-session cache growth
	// (zero values: unbounded, paper defaults for the rest).
	TraceCache core.Config
	// Breaker configures the per-program churn circuit breaker
	// (Breaker.ChurnPerK == 0 disables it).
	Breaker BreakerConfig
	// QuarantineAfter rejects a program with ErrQuarantined once it has
	// panicked the VM this many times (default 3; negative disables).
	QuarantineAfter int
	// Clock substitutes the time source for breaker cool-downs; tests use
	// a manual clock for deterministic transitions (default time.Now).
	Clock func() time.Time
	// Injector, when non-nil, interposes on every run (see Injector). The
	// fault-injection harness is its only intended user.
	Injector Injector
	// NoVerify disables bytecode verification of submitted sources (the
	// default is to verify and refuse invalid programs before they are
	// registered).
	NoVerify bool
	// EventTrace is the capacity of the service's shared observability ring
	// (0 disables event tracing). Sessions, breakers and the request path
	// all emit into it; read a tail with Events. The ring is preallocated
	// and emission never allocates, so an enabled trace on an idle or
	// steady-state service costs nothing.
	EventTrace int
	// SnapshotDir enables profile persistence: each program's learned state
	// (BCG nodes, traces, loop headers) is retained across requests, seeds
	// later sessions of the same program, and is committed to this directory
	// by a coalescing background writer. Empty disables persistence.
	SnapshotDir string
	// SnapshotInterval is the persistence writer's commit period
	// (default 30s).
	SnapshotInterval time.Duration
	// SnapshotNet is the accumulated per-program learning delta (new nodes,
	// signals, trace builds and retirements) that forces a commit before the
	// interval elapses — the coalescing net threshold (default 512).
	SnapshotNet int64
	// Recorder, when non-nil, receives every resolved submission as a
	// replay.Record — the record/replay tap. Refused requests (backpressure)
	// are recorded too: the log is a transcript of offered traffic.
	Recorder *replay.Recorder
}

func (c *Config) fillDefaults() {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4 * c.Workers
	}
	if c.QuarantineAfter == 0 {
		c.QuarantineAfter = 3
	}
	if c.Clock == nil {
		c.Clock = time.Now
	}
	c.Breaker.fillDefaults()
}

// Request is one execution order. Exactly one of Workload (a built-in
// benchmark name) or Source (inline program text compiled per Kind) must be
// set. Zero-valued tuning fields take the service/profiler defaults.
type Request struct {
	Workload string
	Source   string
	Kind     SourceKind

	// Mode is the dispatch configuration (zero value: ModePlain).
	Mode core.Mode
	// Threshold overrides the trace completion threshold when non-zero.
	Threshold float64
	// StartDelay overrides the start-state delay when non-zero.
	StartDelay int32
	// DecayInterval overrides the decay period when non-zero.
	DecayInterval uint32
	// MaxSteps bounds the run's instruction count (clamped to the service
	// cap when that is set).
	MaxSteps int64
	// Timeout overrides Config.DefaultTimeout when non-zero.
	Timeout time.Duration
}

// Response is one completed run.
type Response struct {
	// Program and Key identify the registry entry that ran.
	Program string
	Key     string
	Mode    core.Mode
	// Output is everything the program printed.
	Output string
	// Counters is a quiescent snapshot of the session's raw event record;
	// Metrics are its derived §5.2 values.
	Counters stats.Counters
	Metrics  stats.Metrics
	// NumTraces is the live trace cache size at exit (0 in plain modes).
	NumTraces int
	// BCGNodes is the number of branch contexts discovered (0 in plain
	// modes).
	BCGNodes int
	// CachedBlocks is the total block count held by live traces at exit.
	CachedBlocks int
	// Demoted reports that the churn breaker forced this run down to plain
	// block dispatch; when set, Mode records the effective (plain) mode.
	Demoted bool
	// Wall is the session execution time (queueing excluded).
	Wall time.Duration
}

// Service is the concurrent execution service: a program registry shared by
// a bounded pool of session workers, with aggregated metrics. Create with
// New, submit with Do from any number of goroutines, observe with Stats,
// and Close to drain.
type Service struct {
	cfg Config
	reg *Registry
	agg *aggregator

	// ring is the shared event trace (nil when Config.EventTrace == 0).
	ring *obs.Ring

	// snaps is the profile-persistence store (nil when Config.SnapshotDir
	// is empty).
	snaps *snapStore

	// epochs holds every program's learned state — its per-worker profiler
	// shards and their merged view — and performs the epoch merges.
	epochs *epochCoordinator

	jobs chan *job
	wg   sync.WaitGroup

	mu     sync.RWMutex
	closed bool

	// breakers holds one churn breaker per registry entry, keyed by
	// Compiled.Key; nil map when the breaker is disabled.
	bmu      sync.Mutex
	breakers map[string]*breaker

	// panics counts recovered session panics per registry entry for the
	// quarantine decision.
	qmu    sync.Mutex
	panics map[string]int
}

// Job ownership states: a queued job is claimed either by a worker (which
// then publishes the result) or by its submitter's expired context (which
// then accounts the timeout); the CAS decides races exactly once.
const (
	jobPending int32 = iota
	jobRunning
	jobAbandoned
)

type job struct {
	req       Request
	comp      *Compiled
	interrupt atomic.Bool
	state     atomic.Int32
	enqueued  time.Time

	resp *Response
	err  error
	done chan struct{}
}

// New starts a service with cfg.Workers session workers.
func New(cfg Config) *Service {
	cfg.fillDefaults()
	s := &Service{
		cfg:    cfg,
		reg:    NewRegistry(),
		agg:    newAggregator(),
		jobs:   make(chan *job, cfg.QueueDepth),
		panics: make(map[string]int),
	}
	if cfg.EventTrace > 0 {
		s.ring = obs.NewRing(cfg.EventTrace)
	}
	s.epochs = newEpochCoordinator(cfg.Workers, cfg.TraceCache, s.ring)
	if cfg.SnapshotDir != "" {
		s.snaps = newSnapStore(cfg.SnapshotDir, cfg.SnapshotInterval, cfg.SnapshotNet, s.ring, s.epochs)
	}
	s.reg.NoVerify = cfg.NoVerify
	if cfg.Breaker.ChurnPerK > 0 {
		s.breakers = make(map[string]*breaker)
	}
	s.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker(i)
	}
	return s
}

// Registry exposes the shared program registry (e.g. for pre-warming).
func (s *Service) Registry() *Registry { return s.reg }

// resolve maps the request to a registry entry, compiling on first use.
func (s *Service) resolve(req Request) (*Compiled, error) {
	switch {
	case req.Workload != "" && req.Source != "":
		return nil, errors.New("serve: request sets both Workload and Source")
	case req.Workload != "":
		return s.reg.Workload(req.Workload)
	case req.Source != "":
		return s.reg.Source(req.Kind, req.Source)
	}
	return nil, errors.New("serve: request names no program")
}

// breakerFor returns the program's churn breaker, creating it on first use;
// nil when the breaker is disabled.
func (s *Service) breakerFor(comp *Compiled) *breaker {
	if s.breakers == nil {
		return nil
	}
	s.bmu.Lock()
	defer s.bmu.Unlock()
	b := s.breakers[comp.Key]
	if b == nil {
		b = &breaker{cfg: s.cfg.Breaker, name: comp.Name, sink: s.ring}
		s.breakers[comp.Key] = b
	}
	return b
}

// Events returns the newest n events from the service's shared ring, oldest
// first, optionally filtered: typ obs.EvNone matches every type, an empty
// program matches every program, n <= 0 means everything held. Nil when
// event tracing is disabled.
func (s *Service) Events(n int, typ obs.EventType, program string) []obs.Event {
	if s.ring == nil {
		return nil
	}
	if typ == obs.EvNone && program == "" {
		return s.ring.Tail(nil, n)
	}
	return s.ring.TailFunc(nil, n, func(e obs.Event) bool {
		return (typ == obs.EvNone || e.Type == typ) && (program == "" || e.Program == program)
	})
}

// EventRing exposes the shared ring (nil when tracing is disabled), for
// accounting endpoints that report totals without copying events.
func (s *Service) EventRing() *obs.Ring { return s.ring }

// quarantined reports whether the program's panic count has crossed the
// quarantine threshold.
func (s *Service) quarantined(comp *Compiled) bool {
	if s.cfg.QuarantineAfter < 0 {
		return false
	}
	s.qmu.Lock()
	defer s.qmu.Unlock()
	return s.panics[comp.Key] >= s.cfg.QuarantineAfter
}

// notePanic records one recovered session panic against the program,
// emitting the quarantine event at the exact crossing of the threshold.
func (s *Service) notePanic(comp *Compiled) {
	s.qmu.Lock()
	s.panics[comp.Key]++
	n := s.panics[comp.Key]
	s.qmu.Unlock()
	if s.cfg.QuarantineAfter >= 0 && n == s.cfg.QuarantineAfter {
		s.ring.Emit(obs.Event{
			Type: obs.EvQuarantine,
			X:    obs.NoID, Y: obs.NoID, TraceID: obs.NoID,
			Val: int64(n), Program: comp.Name,
		})
	}
}

// churnPerK converts one run's counters to the breaker's churn metric:
// trace construct+retire events per 1000 block dispatches.
func churnPerK(ctr *stats.Counters) float64 {
	d := ctr.BlockDispatches
	if d < 1 {
		d = 1
	}
	return 1000 * float64(ctr.TracesBuilt+ctr.TracesRetired) / float64(d)
}

// Do executes one request and blocks until it finishes, fails, or the
// context/deadline cancels it. It is safe for concurrent use. A deadline
// that fires mid-run interrupts the session at the next block boundary, so
// a runaway program costs at most one dispatch beyond its budget; if the
// run completed before the cancellation was noticed its result is returned.
func (s *Service) Do(ctx context.Context, req Request) (*Response, error) {
	comp, err := s.resolve(req)
	if err != nil {
		var verr *analysis.VerifyError
		if errors.As(err, &verr) {
			s.agg.verifyReject()
		} else {
			s.agg.compileError()
		}
		return nil, err
	}
	if s.quarantined(comp) {
		s.agg.quarantined()
		return nil, fmt.Errorf("serve: program %q: %w", comp.Name, ErrQuarantined)
	}
	s.record(req, comp.Key)
	timeout := req.Timeout
	if timeout == 0 {
		timeout = s.cfg.DefaultTimeout
	}
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	j := &job{req: req, comp: comp, enqueued: time.Now(), done: make(chan struct{})}
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return nil, ErrClosed
	}
	select {
	case s.jobs <- j:
		s.mu.RUnlock()
		s.agg.accept()
	default:
		s.mu.RUnlock()
		s.agg.reject()
		s.ring.Emit(obs.Event{
			Type: obs.EvQueueSaturated,
			X:    obs.NoID, Y: obs.NoID, TraceID: obs.NoID,
			Val: int64(len(s.jobs)), Program: comp.Name,
		})
		return nil, ErrQueueFull
	}

	select {
	case <-j.done:
		return j.resp, j.err
	case <-ctx.Done():
		j.interrupt.Store(true)
		if j.state.CompareAndSwap(jobPending, jobAbandoned) {
			// Never started; the dequeueing worker will discard it.
			s.agg.timeout(time.Since(j.enqueued))
			return nil, fmt.Errorf("serve: cancelled while queued: %w", ctx.Err())
		}
		// A worker owns it; the interrupt stops the session at the next
		// block boundary.
		<-j.done
		if j.err == nil {
			return j.resp, nil
		}
		return nil, fmt.Errorf("serve: cancelled while running: %w", ctx.Err())
	}
}

// Metrics returns the derived §5.2 values of the merged counters of every
// completed session — the same accessor signature a single repro.VM has, so
// callers can treat one machine and a whole service interchangeably.
func (s *Service) Metrics() stats.Metrics { return s.agg.globalMetrics() }

// Stats returns a self-contained snapshot of the aggregated metrics,
// readable at any time while the pool runs.
func (s *Service) Stats() Snapshot {
	snap := s.agg.snapshot()
	snap.QueueDepth = len(s.jobs)
	snap.QueueCap = s.cfg.QueueDepth
	snap.Workers = s.cfg.Workers
	if s.ring != nil {
		snap.EventCap = s.ring.Cap()
		snap.EventsHeld = s.ring.Len()
		snap.EventsTotal = s.ring.Total()
	}
	snap.Programs = s.reg.Len()
	snap.RegistryHits, snap.RegistryMisses = s.reg.HitsMisses()
	snap.RecordedRequests = int64(s.cfg.Recorder.Len())
	s.mu.RLock()
	snap.Draining = s.closed
	s.mu.RUnlock()

	if s.breakers != nil {
		states := make(map[string]string)
		s.bmu.Lock()
		for _, b := range s.breakers {
			b.snapshotInto(&snap, states)
		}
		s.bmu.Unlock()
		for name, st := range states {
			p := snap.PerProgram[name]
			p.Breaker = st
			snap.PerProgram[name] = p
		}
	}
	if s.cfg.QuarantineAfter >= 0 {
		s.qmu.Lock()
		for _, n := range s.panics {
			if n >= s.cfg.QuarantineAfter {
				snap.QuarantinedPrograms++
			}
		}
		s.qmu.Unlock()
	}
	var merged int
	snap.ShardPrograms, snap.LiveShards, merged = s.epochs.gauges()
	snap.EpochMerges = s.epochs.merges.Load()
	snap.ShardsMerged = s.epochs.shardsMerged.Load()
	if s.snaps != nil {
		// Store-level lifecycle counters (saves, rejections) live in the
		// store's journal, not in any session; merge them into the global
		// counters so /v1/stats and the Prometheus export see them.
		jc := s.snaps.journal.Counters()
		snap.Global.Add(&jc)
		snap.SnapshotPrograms, snap.SnapshotsPending = merged, s.snaps.pending()
	}
	return snap
}

// Close drains the service: new submissions fail with ErrClosed, queued and
// running requests finish normally, and Close returns once every worker has
// exited. Close is idempotent.
func (s *Service) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	close(s.jobs)
	s.wg.Wait()
	if s.snaps != nil {
		// Save-on-drain: every worker has exited, so the final merges see
		// every shard; commit whatever is still dirty before returning.
		s.snaps.close()
	}
}

// worker is one pool goroutine: it claims jobs, runs sessions, publishes
// results, and accounts outcomes. A panicking session is contained by
// runJob, so one bad program cannot take the service down. id is the
// worker's stable index — its slot in every program's shard set.
func (s *Service) worker(id int) {
	defer s.wg.Done()
	for j := range s.jobs {
		if !j.state.CompareAndSwap(jobPending, jobRunning) {
			continue // abandoned while queued; submitter accounted it
		}
		mode := j.req.Mode
		var demote, probe bool
		brk := s.breakerFor(j.comp)
		if brk != nil {
			demote, probe = brk.plan(s.cfg.Clock(), mode.Profiled())
			if demote {
				mode = core.ModePlain
				s.ring.Emit(obs.Event{
					Type: obs.EvDemoted,
					X:    obs.NoID, Y: obs.NoID, TraceID: obs.NoID,
					Program: j.comp.Name,
				})
			}
		}
		resp, err := s.runJob(j, mode, demote, id)
		j.resp, j.err = resp, err
		if brk != nil && mode.Profiled() {
			churn := -1.0 // inconclusive: failed runs yield no counters
			if err == nil {
				churn = churnPerK(&resp.Counters)
			}
			brk.observe(s.cfg.Clock(), churn, demote, probe)
		}
		lat := time.Since(j.enqueued)
		switch {
		case err == nil:
			s.agg.complete(j.comp.Name, &resp.Counters, lat)
		case isInterrupt(err):
			s.agg.timeout(lat)
		default:
			panicked := faulted(err)
			if panicked {
				s.notePanic(j.comp)
			}
			s.agg.fail(lat, panicked)
		}
		close(j.done)
	}
}

// isInterrupt reports whether err is the host-cancellation trap.
func isInterrupt(err error) bool {
	t, ok := vm.AsTrap(err)
	return ok && t.Kind == vm.TrapInterrupted
}

// panicError wraps a recovered session panic.
type panicError struct {
	val any
}

func (e *panicError) Error() string { return fmt.Sprintf("serve: session panic: %v", e.val) }

// faulted reports whether a run ended in a recovered panic: one runJob
// caught, or one vm.Machine.Run caught and reported as a TrapBadProgram —
// raised by the bytecode or by the dispatch hook, which may have died
// mid-update. Either kind counts toward quarantine and discards the shard.
func faulted(err error) bool {
	if err == nil {
		return false
	}
	var pe *panicError
	if errors.As(err, &pe) {
		return true
	}
	t, ok := vm.AsTrap(err)
	return ok && t.Kind == vm.TrapBadProgram
}

// runJob executes one session, recovering panics into errors. mode is the
// effective dispatch mode after any breaker demotion; demoted records it in
// the response. workerID selects the worker's shard for a profiled run.
func (s *Service) runJob(j *job, mode core.Mode, demoted bool, workerID int) (resp *Response, err error) {
	// sh, once non-nil, is this run's locked shard. The deferred handler is
	// the single release point: a clean (or failed-but-orderly) run releases
	// it with its learning delta, marking the set dirty; a faulted
	// run (see faulted) discards the profiler first, since the dispatch hook
	// may have died mid-update and left the graph unusable — the worker's next
	// run rebuilds the shard from the merged view. A panic inside
	// vm.Machine.Run, the hook's included, arrives here as a TrapBadProgram
	// error, not a panic.
	var sh *workerShard
	var set *shardSet
	var delta int64
	defer func() {
		if r := recover(); r != nil {
			resp, err = nil, &panicError{val: r}
		}
		if sh != nil {
			if faulted(err) {
				s.epochs.discard(sh)
				sh.mu.Unlock()
			} else {
				s.epochs.release(sh, set, delta)
			}
		}
	}()
	if s.cfg.Injector != nil {
		s.cfg.Injector.BeforeExec(j.req)
	}

	params := profile.DefaultParams()
	if j.req.Threshold != 0 {
		params.Threshold = j.req.Threshold
	}
	if j.req.StartDelay != 0 {
		params.StartDelay = j.req.StartDelay
	}
	if j.req.DecayInterval != 0 {
		params.DecayInterval = j.req.DecayInterval
	}
	maxSteps := j.req.MaxSteps
	if s.cfg.MaxSteps > 0 && (maxSteps == 0 || maxSteps > s.cfg.MaxSteps) {
		maxSteps = s.cfg.MaxSteps
	}

	var out bytes.Buffer
	sopts := core.SessionOptions{
		Mode:      mode,
		Params:    params,
		Config:    s.cfg.TraceCache,
		Out:       &out,
		MaxSteps:  maxSteps,
		Interrupt: &j.interrupt,
		Hints:     j.comp.Hints,
		Facts:     j.comp.Facts,
	}
	if s.cfg.Injector != nil {
		sopts.WrapHook = s.cfg.Injector.WrapDispatch
	}
	if s.ring != nil {
		// Session events flow into the shared ring tagged with the program,
		// so /v1/events can be filtered per program under live traffic.
		sopts.Sink = obs.Tagged{Sink: s.ring, Program: j.comp.Name}
	}
	if mode.Profiled() {
		// Invalid parameters must not leave a shard set behind.
		if err := params.Validate(); err != nil {
			return nil, err
		}
		// Attach the session to this worker's persistent profiler in the
		// program's set for these parameters. A fresh shard seeds from the
		// set's merged view, so it starts from global knowledge, not cold.
		sh, set = s.epochs.acquire(j.comp, params, workerID)
		if sopts.Profiler, sopts.Snapshot, err = s.epochs.profiler(sh, set); err != nil {
			return nil, err
		}
	}
	sess, err := core.NewSession(j.comp.Prog, j.comp.CFG, sopts)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if err := sess.Run(); err != nil {
		return nil, err
	}
	if s.cfg.Injector != nil {
		s.cfg.Injector.AfterRun(j.req, sess)
	}
	resp = &Response{
		Program:  j.comp.Name,
		Key:      j.comp.Key,
		Mode:     mode,
		Output:   out.String(),
		Counters: sess.Counters.Snapshot(),
		Metrics:  sess.Metrics(),
		Demoted:  demoted,
		Wall:     time.Since(start),
	}
	if sess.Cache != nil {
		resp.NumTraces = sess.Cache.NumTraces()
		resp.CachedBlocks = sess.Cache.CachedBlocks()
	}
	if sess.Graph != nil {
		resp.BCGNodes = sess.Graph.NumNodes()
	}
	// A fully warm, stable run has a zero delta: steady-state traffic never
	// wakes the snapshot writer.
	delta = learnedDelta(&resp.Counters)
	return resp, nil
}

// learnedDelta measures how much a run changed the program's learned state:
// organically created nodes (seeded ones restored existing knowledge),
// profiler signals, and trace churn. It is the coalescing writer's commit
// currency.
func learnedDelta(ctr *stats.Counters) int64 {
	return (ctr.NodesCreated - ctr.NodesSeededFromSnapshot) +
		ctr.Signals + ctr.TracesBuilt + ctr.TracesRetired
}
