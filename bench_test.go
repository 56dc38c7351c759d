// Benchmarks regenerating the paper's evaluation, one per table/figure.
// Each benchmark runs a workload under the relevant configuration and
// reports the paper's dependent values via b.ReportMetric, so
//
//	go test -bench=. -benchmem
//
// prints the same series the tables contain (cmd/tracebench renders them as
// the formatted tables themselves).
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

func runSession(b *testing.B, c *benchProg, mode core.Mode, params profile.Params) *core.Session {
	b.Helper()
	s, err := core.NewSession(c.prog, c.cfg, core.SessionOptions{Mode: mode, Params: params})
	if err != nil {
		b.Fatal(err)
	}
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
	return s
}

// BenchmarkDispatchGranularity regenerates the Figure 1/2 contrast: the
// dispatch count at instruction, basic-block, and trace granularity.
func BenchmarkDispatchGranularity(b *testing.B) {
	for _, name := range workload.Names() {
		b.Run(name, func(b *testing.B) {
			c := compiled(b, name)
			var instr, blocks, traces int64
			for i := 0; i < b.N; i++ {
				s := runSession(b, c, core.ModeTrace, profile.DefaultParams())
				instr = s.Counters.Instrs
				blocks = s.Counters.BlockDispatches
				traces = s.Counters.TraceDispatches
			}
			b.ReportMetric(float64(instr), "instr-dispatches")
			b.ReportMetric(float64(blocks), "block-dispatches")
			b.ReportMetric(float64(traces), "trace-dispatches")
		})
	}
}

// BenchmarkTableI reports the average completed-trace length per threshold.
func BenchmarkTableI(b *testing.B) {
	benchThresholdSweep(b, func(m stats.Metrics) (float64, string) {
		return m.AvgTraceLength, "blocks/trace"
	})
}

// BenchmarkTableII reports instruction stream coverage per threshold.
func BenchmarkTableII(b *testing.B) {
	benchThresholdSweep(b, func(m stats.Metrics) (float64, string) {
		return m.Coverage * 100, "coverage-%"
	})
}

// BenchmarkTableIII reports the dynamic trace completion rate per threshold.
func BenchmarkTableIII(b *testing.B) {
	benchThresholdSweep(b, func(m stats.Metrics) (float64, string) {
		return m.CompletionRate * 100, "completion-%"
	})
}

// BenchmarkTableIV reports thousands of dispatches per state-change signal.
func BenchmarkTableIV(b *testing.B) {
	benchThresholdSweep(b, func(m stats.Metrics) (float64, string) {
		return m.DispatchesPerSignal / 1000, "kdispatch/signal"
	})
}

func benchThresholdSweep(b *testing.B, metric func(stats.Metrics) (float64, string)) {
	for _, name := range workload.Names() {
		for _, th := range []float64{1.00, 0.99, 0.98, 0.97, 0.95} {
			b.Run(name+"/th="+thLabel(th), func(b *testing.B) {
				c := compiled(b, name)
				params := profile.Params{StartDelay: 64, Threshold: th, DecayInterval: 256}
				var v float64
				var unit string
				for i := 0; i < b.N; i++ {
					s := runSession(b, c, core.ModeTrace, params)
					v, unit = metric(s.Metrics())
				}
				b.ReportMetric(v, unit)
			})
		}
	}
}

func thLabel(th float64) string {
	switch th {
	case 1.00:
		return "100"
	case 0.99:
		return "99"
	case 0.98:
		return "98"
	case 0.97:
		return "97"
	default:
		return "95"
	}
}

// BenchmarkTableV reports thousands of dispatches per trace event across
// start-state delays at the 97% threshold.
func BenchmarkTableV(b *testing.B) {
	for _, name := range workload.Names() {
		for _, delay := range []int32{1, 64, 4096} {
			b.Run(name+"/delay="+delayLabel(delay), func(b *testing.B) {
				c := compiled(b, name)
				params := profile.Params{StartDelay: delay, Threshold: 0.97, DecayInterval: 256}
				var v float64
				for i := 0; i < b.N; i++ {
					s := runSession(b, c, core.ModeTrace, params)
					v = s.Metrics().TraceEventInterval / 1000
				}
				b.ReportMetric(v, "kdispatch/event")
			})
		}
	}
}

func delayLabel(d int32) string {
	switch d {
	case 1:
		return "1"
	case 64:
		return "64"
	default:
		return "4096"
	}
}

// BenchmarkTableVI times the interpreter without and with the profiler —
// the wall-clock measurement behind the paper's per-dispatch overhead.
func BenchmarkTableVI(b *testing.B) {
	for _, name := range workload.Names() {
		c := compiled(b, name)
		b.Run(name+"/plain", func(b *testing.B) {
			var dispatches int64
			for i := 0; i < b.N; i++ {
				s := runSession(b, c, core.ModePlain, profile.DefaultParams())
				dispatches = s.Counters.BlockDispatches
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(dispatches), "ns/dispatch")
		})
		b.Run(name+"/profiled", func(b *testing.B) {
			var dispatches int64
			for i := 0; i < b.N; i++ {
				s := runSession(b, c, core.ModeProfile, profile.DefaultParams())
				dispatches = s.Counters.BlockDispatches
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(dispatches), "ns/dispatch")
		})
	}
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
				instrs = runSession(b, c, core.ModePlain, profile.DefaultParams()).Counters.Instrs
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(instrs), "ns/instr")
		})
	}
}

// BenchmarkTableVII times the full trace-dispatching VM in deployment mode
// (one profiler hook per trace dispatch), the configuration whose overhead
// Table VII projects.
func BenchmarkTableVII(b *testing.B) {
	for _, name := range workload.Names() {
		b.Run(name, func(b *testing.B) {
			c := compiled(b, name)
			var traceDisp, profiled int64
			for i := 0; i < b.N; i++ {
				s := runSession(b, c, core.ModeTraceDeploy, profile.DefaultParams())
				traceDisp = s.Counters.TraceDispatches
				profiled = s.Counters.ProfiledDispatches
			}
			b.ReportMetric(float64(traceDisp)/1e6, "Mtrace-dispatches")
			b.ReportMetric(float64(profiled)/1e6, "Mprofiled-dispatches")
		})
	}
}

// BenchmarkTraceThroughput times in-trace execution at both tiers: traces
// on their unfused programs against the fused programs compiled from the
// same traces. The reported metric is nanoseconds per block executed inside
// traces — one executor runs both forms and counts blocks the same way, so
// both tiers share the denominator and the delta is the fused form's
// per-trace-block saving. This is the regression
// benchmark behind the tier rules of harness.CompareBenchReports.
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
			runSession(b, c, core.ModeTrace, profile.DefaultParams())
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
