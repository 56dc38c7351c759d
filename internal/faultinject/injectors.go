package faultinject

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cfg"
	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/vm"
)

// Storm injects a signal storm: after each profiled run it feeds the
// session's live profiler an adversarial, phase-flipping dispatch stream
// over a synthetic block universe. Every phase establishes strong
// correlations (the cache builds traces), then the next phase rewires every
// successor (the cache invalidates and rebuilds) — the pathological program
// behaviour §3 of the paper profiles against, at maximum intensity. Because
// the stream goes through the ordinary profiler entry point, all the real
// machinery churns: signals, trace construction, invalidation, and — under
// cache budgets — eviction pressure.
//
// The injection happens after the program's own execution and before the
// serving layer snapshots counters, so block-dispatch results are untouched
// while the churn is fully visible to the mode controller. After each
// injection the trace cache's invariants are checked; violations are
// counted and the first is retained.
type Storm struct {
	// Blocks is the block count of each synthetic chain (default 16).
	Blocks int
	// Chains is the number of disjoint hot chains driven per phase; each
	// yields its own live traces, so more chains means more simultaneous
	// cache occupancy and, under budgets, eviction pressure (default 6).
	Chains int
	// Phases is the number of phase flips injected per run (default 8).
	Phases int
	// Repeats is how often each phase's chain is replayed, enough to push
	// correlations past the profiler's start delay (default 48).
	Repeats int
	// Seed selects the deterministic phase sequence.
	Seed uint64

	enabled    atomic.Bool
	runs       atomic.Uint64
	violations atomic.Int64

	mu      sync.Mutex
	lastErr error
}

// SetEnabled turns the storm on or off; a disabled storm is a no-op, which
// is how a test models "the storm ends".
func (s *Storm) SetEnabled(v bool) { s.enabled.Store(v) }

// Violations returns how many injections left the cache in an
// invariant-violating state (always 0 unless the cache is buggy).
func (s *Storm) Violations() int64 { return s.violations.Load() }

// Err returns the first invariant violation observed, or nil.
func (s *Storm) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastErr
}

// AfterRun implements the serve.Injector after-run hook.
func (s *Storm) AfterRun(_ serve.Request, sess *core.Session) {
	if !s.enabled.Load() || sess == nil || sess.Graph == nil {
		return
	}
	n := s.Blocks
	if n <= 0 {
		n = 16
	}
	chains := s.Chains
	if chains <= 0 {
		chains = 6
	}
	phases := s.Phases
	if phases <= 0 {
		phases = 8
	}
	repeats := s.Repeats
	if repeats <= 0 {
		repeats = 48
	}
	// Each run gets its own stream, derived deterministically from the
	// seed and the run ordinal.
	r := NewRand(s.Seed + s.runs.Add(1))

	// Synthetic blocks sit far above any real program's IDs, so the storm
	// traces can never be entered by actual execution.
	const off = 1 << 12
	g := sess.Graph
	g.ResetContext()
	for p := 0; p < phases; p++ {
		// One fresh stride per chain per phase. An odd stride is coprime
		// with the power-of-two chain length, so every phase visits every
		// block of the chain with a different successor pattern — the
		// previous phase's traces invalidate while new ones build.
		strides := make([]int, chains)
		for c := range strides {
			strides[c] = 1 + 2*r.Intn(n/2)
		}
		for rep := 0; rep < repeats; rep++ {
			for c := 0; c < chains; c++ {
				base := off + c*n
				prev := cfg.BlockID(base)
				for j := 1; j < n; j++ {
					next := cfg.BlockID(base + (j*strides[c])%n)
					g.OnDispatch(prev, next)
					prev = next
				}
			}
		}
	}
	g.ResetContext()

	if sess.Cache != nil {
		if err := sess.Cache.CheckInvariants(); err != nil {
			s.violations.Add(1)
			s.mu.Lock()
			if s.lastErr == nil {
				s.lastErr = err
			}
			s.mu.Unlock()
		}
	}
}

// Panic makes workers panic: the crash-injection half of the quarantine
// story. It fires on requests accepted by Match (nil matches everything),
// at most Times times in total.
type Panic struct {
	// Match selects which requests crash; nil matches all.
	Match func(serve.Request) bool

	mu    sync.Mutex
	times int // remaining panics; negative = unlimited
	fired int64
}

// NewPanic returns an injector that panics times times (negative =
// unlimited) on matching requests.
func NewPanic(times int, match func(serve.Request) bool) *Panic {
	return &Panic{Match: match, times: times}
}

// Fired returns how many panics have been injected.
func (p *Panic) Fired() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.fired
}

// BeforeExec implements the serve.Injector before-exec hook.
func (p *Panic) BeforeExec(req serve.Request) {
	if p.Match != nil && !p.Match(req) {
		return
	}
	p.mu.Lock()
	if p.times == 0 {
		p.mu.Unlock()
		return
	}
	if p.times > 0 {
		p.times--
	}
	p.fired++
	n := p.fired
	p.mu.Unlock()
	panic(fmt.Sprintf("faultinject: injected worker panic #%d", n))
}

// Delay slows block dispatch down: every Every-th dispatch across all
// wrapped sessions sleeps for Sleep. It turns fast programs into slow ones
// so deadline and interrupt paths can be exercised with real wall time.
type Delay struct {
	// Every is the dispatch period (default 1024).
	Every uint64
	// Sleep is the injected pause (default 1ms).
	Sleep time.Duration

	n atomic.Uint64
}

// Wrap implements the serve.Injector dispatch-wrapping hook.
func (d *Delay) Wrap(h vm.DispatchHook) vm.DispatchHook {
	every := d.Every
	if every == 0 {
		every = 1024
	}
	sleep := d.Sleep
	if sleep == 0 {
		sleep = time.Millisecond
	}
	return vm.HookFunc(func(from, to cfg.BlockID) {
		if d.n.Add(1)%every == 0 {
			time.Sleep(sleep)
		}
		if h != nil {
			h.OnDispatch(from, to)
		}
	})
}

// Misdirect poisons the profiler's view of one branch: every dispatch
// leaving From is reported as going to To, regardless of where execution
// actually went. The profiler then learns a perfectly correlated path
// through a successor the program never takes, the cache builds a trace
// along it, and real execution guard-exits out of that trace on every
// entry — a deterministic guard-exit storm. Plug the method value Wrap into
// core.SessionOptions.WrapHook or the serve.Injector seam.
type Misdirect struct {
	// From is the branch block whose reported successor is replaced.
	From cfg.BlockID
	// To is the successor the profiler is told about.
	To cfg.BlockID

	lies atomic.Int64
}

// Lies returns how many dispatch reports were rewritten to a successor that
// differed from the real one.
func (m *Misdirect) Lies() int64 { return m.lies.Load() }

// Wrap implements the dispatch-wrapping hook.
func (m *Misdirect) Wrap(h vm.DispatchHook) vm.DispatchHook {
	return vm.HookFunc(func(from, to cfg.BlockID) {
		if from == m.From {
			if to != m.To {
				m.lies.Add(1)
			}
			to = m.To
		}
		if h != nil {
			h.OnDispatch(from, to)
		}
	})
}

// Faults bundles the injectors into one serve.Injector; nil fields inject
// nothing.
type Faults struct {
	Storm *Storm
	Panic *Panic
	Delay *Delay
}

var _ serve.Injector = (*Faults)(nil)

func (f *Faults) BeforeExec(req serve.Request) {
	if f.Panic != nil {
		f.Panic.BeforeExec(req)
	}
}

func (f *Faults) WrapDispatch(h vm.DispatchHook) vm.DispatchHook {
	if f.Delay != nil {
		return f.Delay.Wrap(h)
	}
	return h
}

func (f *Faults) AfterRun(req serve.Request, sess *core.Session) {
	if f.Storm != nil {
		f.Storm.AfterRun(req, sess)
	}
}
