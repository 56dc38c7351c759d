// Package serve is the concurrent execution service over the trace-cache
// VM: a shared program registry (compile once, run many), a bounded worker
// pool with backpressure and per-request deadlines, and aggregated
// observability over every completed session.
//
// The layering contract that makes this safe: a linked *classfile.Program
// and its *cfg.ProgramCFG are immutable after linking — all mutable run
// state (operand stacks, heap, statics, profiler graph, trace cache) lives
// in the per-request core.Session. The registry therefore shares compiled
// programs freely across concurrent sessions, while every session gets its
// own profiler and trace cache, exactly as SableVM gives every thread its
// own dispatch state.
package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/analysis"
	"repro/internal/analysis/valueflow"
	"repro/internal/cfg"
	"repro/internal/classfile"
	"repro/internal/jasm"
	"repro/internal/minijava"
	"repro/internal/workload"
)

// SourceKind says how request source text is compiled.
type SourceKind uint8

const (
	// KindMiniJava compiles the source with the MiniJava frontend.
	KindMiniJava SourceKind = iota
	// KindJasm assembles the source with the jasm assembler.
	KindJasm
)

func (k SourceKind) String() string {
	switch k {
	case KindMiniJava:
		return "minijava"
	case KindJasm:
		return "jasm"
	}
	return "invalid"
}

// Compiled is one registry entry: a linked program plus its CFGs, shared
// read-only by every session that runs it.
type Compiled struct {
	// Key is the content hash the program is registered under.
	Key string
	// Name is a human label: the workload name, or "<kind>:<key prefix>"
	// for ad-hoc sources. Aggregated metrics are keyed by Name.
	Name string
	Prog *classfile.Program
	CFG  *cfg.ProgramCFG
	// Hints are the static dataflow facts computed once at registration and
	// shared by every session that runs the program (sessions only read
	// them).
	Hints *analysis.Hints
	// Facts are the whole-program value-flow facts (constants, decided
	// branches, nullness), computed once at registration alongside Hints.
	// They feed the Hints' decided-branch seeding and the guard oracle that
	// stamps traces with side-exit proofs; like Hints, they are immutable
	// and shared by every session.
	Facts *valueflow.Facts
}

const regShards = 16

// Registry caches compiled programs keyed by content hash behind an
// RWMutex-sharded map. Lookups are read-mostly and take only a shard read
// lock; a miss inserts a placeholder under the shard write lock and
// compiles outside it, so two concurrent first requests for the same
// program compile it once and a slow compile never blocks other shards.
type Registry struct {
	shards [regShards]regShard
	hits   atomic.Int64
	misses atomic.Int64

	// NoVerify skips bytecode verification of submitted sources. Set it
	// before the registry receives requests; built-in workloads are always
	// trusted and never verified here.
	NoVerify bool
}

type regShard struct {
	mu sync.RWMutex
	m  map[string]*regEntry
}

type regEntry struct {
	once sync.Once
	c    *Compiled
	err  error
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	r := &Registry{}
	for i := range r.shards {
		r.shards[i].m = make(map[string]*regEntry)
	}
	return r
}

// hashBufs recycles hashKey's input buffers. sha256's digest has no
// WriteString, so hashing a string through it would copy the source onto
// the heap on every request.
var hashBufs = sync.Pool{New: func() any { return new([]byte) }}

// maxPooledHashBuf bounds the buffers hashBufs keeps; a rare huge source
// leaves its buffer to the GC.
const maxPooledHashBuf = 64 << 10

// hashKey is the registry key of body in domain: the hex of the first 16
// bytes of sha256(domain || 0 || body). Snapshot file names are these keys,
// so the format must never change.
func hashKey(domain string, body string) string {
	bp := hashBufs.Get().(*[]byte)
	buf := append(append(append((*bp)[:0], domain...), 0), body...)
	sum := sha256.Sum256(buf)
	if cap(buf) <= maxPooledHashBuf {
		*bp = buf
		hashBufs.Put(bp)
	}
	return hex.EncodeToString(sum[:16])
}

func (r *Registry) shard(key string) *regShard {
	// Keys are hex, so the first byte is already uniformly distributed.
	return &r.shards[key[0]%regShards]
}

// lookup returns the entry for key, creating it if needed. The returned
// entry's compile function runs at most once across all callers.
func (r *Registry) lookup(key string) (*regEntry, bool) {
	s := r.shard(key)
	s.mu.RLock()
	e, ok := s.m[key]
	s.mu.RUnlock()
	if ok {
		return e, true
	}
	s.mu.Lock()
	e, ok = s.m[key]
	if !ok {
		e = &regEntry{}
		s.m[key] = e
	}
	s.mu.Unlock()
	return e, ok
}

func (r *Registry) resolve(key, name string, compile func() (*classfile.Program, *cfg.ProgramCFG, error)) (*Compiled, error) {
	e, hit := r.lookup(key)
	if hit {
		r.hits.Add(1)
	} else {
		r.misses.Add(1)
	}
	e.once.Do(func() {
		prog, pcfg, err := compile()
		if err != nil {
			e.err = err
			return
		}
		c := &Compiled{Key: key, Name: name, Prog: prog, CFG: pcfg}
		if pcfg != nil {
			c.Facts = valueflow.Compute(pcfg)
			c.Hints = analysis.ComputeHintsWithFacts(pcfg, c.Facts)
		}
		e.c = c
	})
	return e.c, e.err
}

// Source compiles (or returns cached) an ad-hoc source text.
func (r *Registry) Source(kind SourceKind, src string) (*Compiled, error) {
	key := hashKey(kind.String(), src)
	name := fmt.Sprintf("%s:%s", kind, key[:8])
	return r.resolve(key, name, func() (*classfile.Program, *cfg.ProgramCFG, error) {
		var (
			prog *classfile.Program
			err  error
		)
		switch kind {
		case KindMiniJava:
			prog, err = minijava.Compile(src)
		case KindJasm:
			// Unlinked, so the verifier sees a program the linker's
			// stack-depth check would refuse and reports it by rule.
			prog, err = jasm.AssembleUnlinked(src)
		default:
			return nil, nil, fmt.Errorf("serve: unknown source kind %d", kind)
		}
		if err != nil {
			return nil, nil, err
		}
		if !r.NoVerify {
			// Submitted bytecode is untrusted: reject structurally invalid
			// programs before they reach the dispatch engine. The rejection
			// (a *analysis.VerifyError carrying the full report) is cached
			// like any compile error, so resubmitting costs one map lookup.
			if rep := analysis.Verify(prog); rep.Reject() {
				return nil, nil, fmt.Errorf("serve: program rejected by verifier: %w", rep.Err())
			}
		}
		if err := prog.Link(); err != nil {
			return nil, nil, err
		}
		pcfg, err := cfg.BuildProgram(prog)
		if err != nil {
			return nil, nil, err
		}
		return prog, pcfg, nil
	})
}

// Workload compiles (or returns cached) a built-in benchmark by name.
func (r *Registry) Workload(name string) (*Compiled, error) {
	w, err := workload.ByName(name)
	if err != nil {
		return nil, err
	}
	key := hashKey("workload", w.Name)
	return r.resolve(key, w.Name, func() (*classfile.Program, *cfg.ProgramCFG, error) {
		return w.Compile()
	})
}

// Len reports the number of registered programs (including entries whose
// compilation failed; they cache the error).
func (r *Registry) Len() int {
	n := 0
	for i := range r.shards {
		s := &r.shards[i]
		s.mu.RLock()
		n += len(s.m)
		s.mu.RUnlock()
	}
	return n
}

// HitsMisses reports cache hit/miss totals since creation.
func (r *Registry) HitsMisses() (hits, misses int64) {
	return r.hits.Load(), r.misses.Load()
}
