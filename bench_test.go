// Per-layer micro-benchmarks: each measures one layer or cost that no paper
// table shows — interpreter dispatch, in-trace execution at each tier, the
// profiler hook, trace lookup and the baseline selectors. The paper's tables
// and figures come from cmd/tracebench; service-level numbers come from the
// benchmark/ module.
//
//	go test -run '^$' -bench . -count 5 .
package repro_test

import (
	"testing"

	"repro"
	"repro/internal/analysis/valueflow"
	"repro/internal/baseline"
	"repro/internal/cfg"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/profile"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/vm"
	"repro/internal/workload"
)

// compiledCache avoids recompiling workloads across benchmark iterations.
var compiledCache = map[string]*benchProg{}

type benchProg struct {
	prog  *repro.Program
	cfg   *cfg.ProgramCFG
	facts *valueflow.Facts
}

func compiled(b *testing.B, name string) *benchProg {
	b.Helper()
	if c, ok := compiledCache[name]; ok {
		return c
	}
	w, err := workload.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	prog, pcfg, err := w.Compile()
	if err != nil {
		b.Fatal(err)
	}
	c := &benchProg{prog: prog, cfg: pcfg, facts: valueflow.Compute(pcfg)}
	compiledCache[name] = c
	return c
}

func runSession(b *testing.B, c *benchProg, mode core.Mode) *core.Session {
	b.Helper()
	s, err := core.NewSession(c.prog, c.cfg, core.SessionOptions{Mode: mode, Params: profile.DefaultParams()})
	if err != nil {
		b.Fatal(err)
	}
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
	return s
}

// BenchmarkPlainDispatch times the interpreter alone — block dispatch, no
// profiler, no traces — per executed instruction, the micro-benchmark twin
// of the scoreboard's vm.ns_per_instr.plain. It is the number an
// instruction-body cost (an operand copy, a stack check) moves first.
func BenchmarkPlainDispatch(b *testing.B) {
	for _, name := range workload.Names() {
		b.Run(name, func(b *testing.B) {
			c := compiled(b, name)
			var instrs int64
			for i := 0; i < b.N; i++ {
				instrs = runSession(b, c, core.ModePlain).Counters.Instrs
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(instrs), "ns/instr")
		})
	}
}

// BenchmarkTraceThroughput times in-trace execution at both tiers: traces
// on their unfused programs against the fused programs compiled from the
// same traces. The reported metric is nanoseconds per block executed inside
// traces — one executor runs both forms and counts blocks the same way, so
// both tiers share the denominator and the delta is the fused form's
// per-trace-block saving. It is the instrument for the tier-2 gain per
// workload; run it with -count 5 and compare medians.
func BenchmarkTraceThroughput(b *testing.B) {
	tiers := []struct {
		label  string
		config core.Config
	}{
		{"tier1", core.Config{}},
		{"tier2", core.Config{CompileTraces: true, TierUpDispatches: 4}},
	}
	for _, name := range workload.Names() {
		for _, tier := range tiers {
			b.Run(name+"/"+tier.label, func(b *testing.B) {
				c := compiled(b, name)
				var traceBlocks, compiledDisp, traceDisp int64
				for i := 0; i < b.N; i++ {
					s, err := core.NewSession(c.prog, c.cfg, core.SessionOptions{
						Mode:   core.ModeTrace,
						Params: profile.DefaultParams(),
						Config: tier.config,
						Facts:  c.facts,
					})
					if err != nil {
						b.Fatal(err)
					}
					if err := s.Run(); err != nil {
						b.Fatal(err)
					}
					traceBlocks = s.Counters.BlocksInTraces
					compiledDisp = s.Counters.CompiledDispatches
					traceDisp = s.Counters.TraceDispatches
				}
				if traceBlocks == 0 {
					b.Fatalf("%s executed no blocks inside traces; ns/trace-block is undefined", name)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(traceBlocks), "ns/trace-block")
				if traceDisp > 0 {
					b.ReportMetric(float64(compiledDisp)/float64(traceDisp)*100, "compiled-share-%")
				}
			})
		}
	}
}

// BenchmarkBaselines measures the comparison selectors on one mid-size
// workload so their cost is visible next to the BCG system.
func BenchmarkBaselines(b *testing.B) {
	c := compiled(b, "soot")
	b.Run("bcg", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			runSession(b, c, core.ModeTrace)
		}
	})
	b.Run("dynamo-net", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ctr := &stats.Counters{}
			d := baseline.NewDynamo(c.cfg, baseline.DefaultDynamoConfig(), ctr)
			m, err := vm.New(c.prog, c.cfg, vm.Options{Hook: d, Traces: d, HookInsideTraces: true, Counters: ctr})
			if err != nil {
				b.Fatal(err)
			}
			if err := m.Run(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("replay", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ctr := &stats.Counters{}
			r := baseline.NewReplay(c.cfg, baseline.DefaultReplayConfig(), ctr)
			m, err := vm.New(c.prog, c.cfg, vm.Options{Hook: r, Traces: r, HookInsideTraces: true, Counters: ctr})
			if err != nil {
				b.Fatal(err)
			}
			if err := m.Run(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// edgeRecorder captures the dispatch edge stream of a run for replay.
type edgeRecorder struct {
	from, to []cfg.BlockID
}

func (r *edgeRecorder) OnDispatch(from, to cfg.BlockID) {
	r.from = append(r.from, from)
	r.to = append(r.to, to)
}

// BenchmarkProfilerOverhead replays a real workload's dispatch-edge stream
// through a warmed branch correlation graph, isolating the profiler's
// steady-state per-dispatch cost from interpretation. This is the
// regression benchmark for the dense-index/arena BCG: ns/dispatch should
// stay in single digits and allocs/op at zero.
func BenchmarkProfilerOverhead(b *testing.B) {
	c := compiled(b, "compress")
	rec := &edgeRecorder{}
	m, err := vm.New(c.prog, c.cfg, vm.Options{Hook: rec, MaxSteps: 400_000})
	if err != nil {
		b.Fatal(err)
	}
	if err := m.Run(); err != nil {
		if t, ok := vm.AsTrap(err); !ok || t.Kind != vm.TrapStepLimit {
			b.Fatal(err)
		}
	}
	if len(rec.from) == 0 {
		b.Fatal("recorded no dispatch edges")
	}

	g, err := profile.New(profile.DefaultParams(), nil, nil)
	if err != nil {
		b.Fatal(err)
	}
	g.Reserve(c.cfg.NumBlocks())
	// Event tracing enabled but idle: the warmed graph signals almost no
	// state transitions, and the ones that fire must be allocation-free
	// too, so allocs/op stays pinned at zero with observability on.
	g.SetSink(obs.NewRing(1024))
	replay := func() {
		g.ResetContext()
		for i := range rec.from {
			g.OnDispatch(rec.from[i], rec.to[i])
		}
	}
	replay() // warm: build the graph's working set once

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		replay()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(rec.from)), "ns/dispatch")
}

// BenchmarkProfilerHook isolates the per-dispatch cost of the BCG hook's
// inline-cache fast path (the "two comparisons, two pointer evaluations,
// one assignment" of §5.4).
func BenchmarkProfilerHook(b *testing.B) {
	g, err := profile.New(profile.DefaultParams(), nil, nil)
	if err != nil {
		b.Fatal(err)
	}
	// Warm a small loop so the fast path dominates.
	seq := []cfg.BlockID{1, 2, 3, 4}
	for r := 0; r < 64; r++ {
		for i := 1; i < len(seq); i++ {
			g.OnDispatch(seq[i-1], seq[i])
		}
		g.OnDispatch(seq[len(seq)-1], seq[0])
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.OnDispatch(seq[i%4], seq[(i+1)%4])
	}
}

// BenchmarkTraceLookup isolates the engine-side cost of consulting the
// trace cache on a dispatch edge.
func BenchmarkTraceLookup(b *testing.B) {
	src := trace.MapSource{}
	tr := trace.New(0, []cfg.BlockID{2, 3}, 0.97)
	src.Register(1, 2, tr)
	var hit *trace.Trace
	for i := 0; i < b.N; i++ {
		hit = src.Lookup(cfg.BlockID(i%8), cfg.BlockID((i+1)%8))
	}
	_ = hit
}

// BenchmarkTraceLookupIndexed measures the same lookup through the dense
// two-level index the engine's dispatch loop actually uses — the common
// "no trace on this edge" case is one bounds check and a slice load.
func BenchmarkTraceLookupIndexed(b *testing.B) {
	var ix trace.Index
	ix.Reserve(8)
	tr := trace.New(0, []cfg.BlockID{2, 3}, 0.97)
	ix.Set(1, 2, tr)
	var hit *trace.Trace
	for i := 0; i < b.N; i++ {
		hit = ix.Lookup(cfg.BlockID(i%8), cfg.BlockID((i+1)%8))
	}
	_ = hit
}
