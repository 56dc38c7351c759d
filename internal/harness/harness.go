// Package harness runs the paper's experiments: it sweeps the start-state
// delay and completion threshold over the six workloads and renders Tables
// I–VII plus the dispatch-granularity figure data. cmd/tracebench is a thin
// CLI over this package, and EXPERIMENTS.md records one full set of results.
package harness

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/analysis/valueflow"
	"repro/internal/baseline"
	"repro/internal/cfg"
	"repro/internal/classfile"
	"repro/internal/core"
	"repro/internal/profile"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/vm"
	"repro/internal/workload"
)

// Thresholds are the completion thresholds of Tables I–IV, in the paper's
// row order.
var Thresholds = []float64{1.00, 0.99, 0.98, 0.97, 0.95}

// Delays are the start-state delays of Table V.
var Delays = []int32{1, 64, 4096}

// DefaultDelay is the delay used by the threshold sweep (the paper found 64
// best and used it for Tables I–IV).
const DefaultDelay int32 = 64

// DefaultThreshold is the threshold used by the delay sweep (Table V).
const DefaultThreshold = 0.97

// Result is one measured run.
type Result struct {
	Workload  string
	Mode      core.Mode
	Params    profile.Params
	Counters  *stats.Counters
	Metrics   stats.Metrics
	Wall      time.Duration
	NumTraces int
}

// Suite runs experiments with compiled workloads cached across runs.
type Suite struct {
	// MaxSteps bounds each run (0 = unlimited).
	MaxSteps int64
	// Repeats for wall-clock measurements (minimum is taken). Default 3.
	Repeats int
	// Workloads restricts the benchmark set (default: all six).
	Workloads []string

	programs map[string]*compiled
	gridA    map[string]Result // key: workload/threshold (delay 64, ModeTrace)
	gridB    map[string]Result // key: workload/delay (threshold 97%, ModeTrace)
}

type compiled struct {
	prog *classfile.Program
	cfg  *cfg.ProgramCFG
	// facts is the value-flow table, computed once per workload and shared
	// by every session the suite builds from this entry.
	facts *valueflow.Facts
}

// NewSuite creates an empty suite.
func NewSuite() *Suite {
	return &Suite{
		Repeats:   3,
		Workloads: workload.Names(),
		programs:  make(map[string]*compiled),
		gridA:     make(map[string]Result),
		gridB:     make(map[string]Result),
	}
}

func (s *Suite) compileWorkload(name string) (*compiled, error) {
	if c, ok := s.programs[name]; ok {
		return c, nil
	}
	w, err := workload.ByName(name)
	if err != nil {
		return nil, err
	}
	prog, pcfg, err := w.Compile()
	if err != nil {
		return nil, err
	}
	c := &compiled{prog: prog, cfg: pcfg, facts: valueflow.Compute(pcfg)}
	s.programs[name] = c
	return c, nil
}

// Run executes one workload under one configuration.
func (s *Suite) Run(name string, mode core.Mode, params profile.Params) (Result, error) {
	c, err := s.compileWorkload(name)
	if err != nil {
		return Result{}, err
	}
	sess, err := core.NewSession(c.prog, c.cfg, core.SessionOptions{
		Mode:     mode,
		Params:   params,
		MaxSteps: s.MaxSteps,
	})
	if err != nil {
		return Result{}, err
	}
	start := time.Now()
	if err := sess.Run(); err != nil && !stepLimited(err) {
		return Result{}, fmt.Errorf("harness: %s (%s): %w", name, mode, err)
	}
	res := Result{
		Workload: name,
		Mode:     mode,
		Params:   params,
		Counters: sess.Counters,
		Metrics:  sess.Metrics(),
		Wall:     time.Since(start),
	}
	if sess.Cache != nil {
		res.NumTraces = sess.Cache.NumTraces()
	}
	return res, nil
}

// thresholdRun returns (cached) the measurement run for Tables I–IV.
func (s *Suite) thresholdRun(name string, threshold float64) (Result, error) {
	key := fmt.Sprintf("%s/%.2f", name, threshold)
	if r, ok := s.gridA[key]; ok {
		return r, nil
	}
	r, err := s.Run(name, core.ModeTrace, profile.Params{
		StartDelay: DefaultDelay, Threshold: threshold, DecayInterval: 256,
	})
	if err != nil {
		return Result{}, err
	}
	s.gridA[key] = r
	return r, nil
}

// delayRun returns (cached) the measurement run for Table V.
func (s *Suite) delayRun(name string, delay int32) (Result, error) {
	key := fmt.Sprintf("%s/%d", name, delay)
	if r, ok := s.gridB[key]; ok {
		return r, nil
	}
	r, err := s.Run(name, core.ModeTrace, profile.Params{
		StartDelay: delay, Threshold: DefaultThreshold, DecayInterval: 256,
	})
	if err != nil {
		return Result{}, err
	}
	s.gridB[key] = r
	return r, nil
}

// Table is a rendered experiment table.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
}

// Format renders the table as aligned text.
func (t Table) Format() string {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", t.Title)
	line := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	line(t.Columns)
	for _, row := range t.Rows {
		line(row)
	}
	return b.String()
}

func thresholdLabel(th float64) string {
	return fmt.Sprintf("%d%%", int(th*100+0.5))
}

// workloadColumns is the shared header: threshold/delay, six workloads,
// average.
func (s *Suite) workloadColumns(first string) []string {
	cols := []string{first}
	cols = append(cols, s.Workloads...)
	return append(cols, "average")
}

// sweep builds one row per threshold using cell to extract the value and
// avg to aggregate it.
func (s *Suite) sweep(cell func(Result) (string, float64)) ([][]string, error) {
	var rows [][]string
	for _, th := range Thresholds {
		row := []string{thresholdLabel(th)}
		sum, n := 0.0, 0
		for _, name := range s.Workloads {
			r, err := s.thresholdRun(name, th)
			if err != nil {
				return nil, err
			}
			cellStr, v := cell(r)
			row = append(row, cellStr)
			sum += v
			n++
		}
		row = append(row, fmt.Sprintf("%.1f", sum/float64(n)))
		rows = append(rows, row)
	}
	return rows, nil
}

// TableI reproduces "Trace Length vs. Threshold" (average completed-trace
// length in blocks).
func (s *Suite) TableI() (Table, error) {
	rows, err := s.sweep(func(r Result) (string, float64) {
		v := r.Metrics.AvgTraceLength
		return fmt.Sprintf("%.1f", v), v
	})
	if err != nil {
		return Table{}, err
	}
	return Table{
		Title:   "Table I: Trace Length vs. Threshold (blocks; delay 64)",
		Columns: s.workloadColumns("threshold"),
		Rows:    rows,
	}, nil
}

// TableII reproduces "Instruction Stream Coverage vs. Threshold" (completed
// traces only; the in-cache figure is reported by Figures()).
func (s *Suite) TableII() (Table, error) {
	rows, err := s.sweep(func(r Result) (string, float64) {
		v := r.Metrics.Coverage * 100
		return fmt.Sprintf("%.0f%%", v), v
	})
	if err != nil {
		return Table{}, err
	}
	return Table{
		Title:   "Table II: Instruction Stream Coverage vs. Threshold (completed traces; delay 64)",
		Columns: s.workloadColumns("threshold"),
		Rows:    rows,
	}, nil
}

// TableIII reproduces "Frame completion rate vs. Threshold"; values above
// 99.9% print as 99+ following the paper's footnote.
func (s *Suite) TableIII() (Table, error) {
	rows, err := s.sweep(func(r Result) (string, float64) {
		v := r.Metrics.CompletionRate * 100
		if v > 99.9 {
			return "99+", v
		}
		return fmt.Sprintf("%.0f%%", v), v
	})
	if err != nil {
		return Table{}, err
	}
	return Table{
		Title:   "Table III: Trace completion rate vs. Threshold (delay 64)",
		Columns: s.workloadColumns("threshold"),
		Rows:    rows,
	}, nil
}

// TableIV reproduces "Thousands of Dispatches per State Change Signal".
func (s *Suite) TableIV() (Table, error) {
	rows, err := s.sweep(func(r Result) (string, float64) {
		v := r.Metrics.DispatchesPerSignal / 1000
		return fmt.Sprintf("%.1f", v), v
	})
	if err != nil {
		return Table{}, err
	}
	return Table{
		Title:   "Table IV: Thousands of Dispatches per State Change Signal (delay 64)",
		Columns: s.workloadColumns("threshold"),
		Rows:    rows,
	}, nil
}

// TableV reproduces "Thousands of Dispatches per Trace Event at 97%
// threshold" across start-state delays.
func (s *Suite) TableV() (Table, error) {
	var rows [][]string
	for _, d := range Delays {
		row := []string{fmt.Sprintf("%d", d)}
		sum, n := 0.0, 0
		for _, name := range s.Workloads {
			r, err := s.delayRun(name, d)
			if err != nil {
				return Table{}, err
			}
			v := r.Metrics.TraceEventInterval / 1000
			row = append(row, fmt.Sprintf("%.1f", v))
			sum += v
			n++
		}
		row = append(row, fmt.Sprintf("%.1f", sum/float64(n)))
		rows = append(rows, row)
	}
	return Table{
		Title:   "Table V: Thousands of Dispatches per Trace Event (97% threshold)",
		Columns: s.workloadColumns("delay"),
		Rows:    rows,
	}, nil
}

// Overhead is one workload's Table VI measurement.
type Overhead struct {
	Workload     string
	PlainWall    time.Duration
	ProfileWall  time.Duration
	Dispatches   int64
	PerMillion   time.Duration // profiling cost per 10^6 dispatches
	TraceDisp    int64         // trace-mode dispatch count (Table VII)
	ExpectedOver time.Duration // projected trace-dispatch profiling cost
	PercentOver  float64       // ExpectedOver / PlainWall
}

// MeasureOverhead produces the data behind Tables VI and VII for one
// workload: minimum-of-N wall clock for the unprofiled and profiled
// interpreters plus the deployment-mode trace dispatch count.
func (s *Suite) MeasureOverhead(name string) (Overhead, error) {
	c, err := s.compileWorkload(name)
	if err != nil {
		return Overhead{}, err
	}
	repeats := s.Repeats
	if repeats <= 0 {
		repeats = 3
	}

	timedOnce := func(mode core.Mode) (time.Duration, *stats.Counters, error) {
		sess, err := core.NewSession(c.prog, c.cfg, core.SessionOptions{
			Mode:     mode,
			Params:   profile.Params{StartDelay: DefaultDelay, Threshold: DefaultThreshold, DecayInterval: 256},
			MaxSteps: s.MaxSteps,
		})
		if err != nil {
			return 0, nil, err
		}
		// Collect garbage from session construction and earlier runs so a
		// deferred GC cycle does not land inside the timed region.
		runtime.GC()
		start := time.Now()
		if err := sess.Run(); err != nil && !stepLimited(err) {
			return 0, nil, err
		}
		return time.Since(start), sess.Counters, nil
	}

	// Interleave the modes within each repeat (plain, profiled, deploy,
	// plain, ...) so machine-load drift during the measurement biases all
	// modes equally instead of whichever phase ran last; keep the minimum
	// per mode across repeats.
	modes := []core.Mode{core.ModePlain, core.ModeProfile, core.ModeTraceDeploy}
	walls := make([]time.Duration, len(modes))
	ctrs := make([]*stats.Counters, len(modes))
	for i := 0; i < repeats; i++ {
		for mi, mode := range modes {
			w, ctr, err := timedOnce(mode)
			if err != nil {
				return Overhead{}, err
			}
			if ctrs[mi] == nil || w < walls[mi] {
				walls[mi] = w
				ctrs[mi] = ctr
			}
		}
	}
	plainWall, plainCtr := walls[0], ctrs[0]
	profWall := walls[1]
	deployCtr := ctrs[2]

	o := Overhead{
		Workload:    name,
		PlainWall:   plainWall,
		ProfileWall: profWall,
		Dispatches:  plainCtr.BlockDispatches,
		TraceDisp:   deployCtr.TraceDispatches,
	}
	over := profWall - plainWall
	if over < 0 {
		over = 0
	}
	if o.Dispatches > 0 {
		o.PerMillion = time.Duration(int64(over) * 1_000_000 / o.Dispatches)
	}
	o.ExpectedOver = time.Duration(int64(o.PerMillion) * o.TraceDisp / 1_000_000)
	if plainWall > 0 {
		o.PercentOver = float64(o.ExpectedOver) / float64(plainWall) * 100
	}
	return o, nil
}

// TableVI reproduces "Profiler overhead per basic block dispatch".
func (s *Suite) TableVI() (Table, []Overhead, error) {
	var rows [][]string
	var all []Overhead
	for _, name := range s.Workloads {
		o, err := s.MeasureOverhead(name)
		if err != nil {
			return Table{}, nil, err
		}
		all = append(all, o)
		rows = append(rows, []string{
			name,
			fmt.Sprintf("%.3fs", o.PlainWall.Seconds()),
			fmt.Sprintf("%.1f", float64(o.Dispatches)/1e6),
			fmt.Sprintf("%.3fs", o.ProfileWall.Seconds()),
			fmt.Sprintf("%.4fs", o.PerMillion.Seconds()),
		})
	}
	return Table{
		Title:   "Table VI: Profiler overhead per basic block dispatch",
		Columns: []string{"benchmark", "no profiler", "dispatches (M)", "profiler", "overhead per 1e6"},
		Rows:    rows,
	}, all, nil
}

// TableVII reproduces "Profiler dispatch overhead" from the same
// measurements: the projected cost of profiling under trace dispatch.
func (s *Suite) TableVII(measured []Overhead) Table {
	var rows [][]string
	for _, o := range measured {
		rows = append(rows, []string{
			o.Workload,
			fmt.Sprintf("%.1f", float64(o.TraceDisp)/1e6),
			fmt.Sprintf("%.4fs", o.PerMillion.Seconds()),
			fmt.Sprintf("%.3fs", o.ExpectedOver.Seconds()),
			fmt.Sprintf("%.1f%%", o.PercentOver),
		})
	}
	return Table{
		Title:   "Table VII: Profiler dispatch overhead (trace-dispatch projection)",
		Columns: []string{"benchmark", "trace dispatches (M)", "overhead per 1e6", "expected overhead", "% overhead"},
		Rows:    rows,
	}
}

// Figures reports the dispatch-granularity data motivating Figures 1 and 2:
// dispatches per mode (instruction, block, trace) plus cache-level coverage.
func (s *Suite) Figures() (Table, error) {
	var rows [][]string
	for _, name := range s.Workloads {
		r, err := s.thresholdRun(name, DefaultThreshold)
		if err != nil {
			return Table{}, err
		}
		rows = append(rows, []string{
			name,
			fmt.Sprintf("%.1f", float64(r.Counters.Instrs)/1e6),
			fmt.Sprintf("%.1f", float64(r.Counters.BlockDispatches)/1e6),
			fmt.Sprintf("%.1f", float64(r.Counters.TraceDispatches)/1e6),
			fmt.Sprintf("%.1f%%", r.Metrics.CacheCoverage*100),
			fmt.Sprintf("%d", r.NumTraces),
		})
	}
	return Table{
		Title:   "Figures 1-2: dispatches by granularity (millions; 97%, delay 64)",
		Columns: []string{"benchmark", "instr dispatches", "block dispatches", "trace dispatches", "in-cache coverage", "live traces"},
		Rows:    rows,
	}, nil
}

// BaselineRow is one selector's quality measurement on one workload.
type BaselineRow struct {
	Workload   string
	Selector   string
	Coverage   float64
	Completion float64
	AvgLen     float64
	Traces     int
}

// Baselines measures trace quality for the BCG system against Dynamo-NET
// and rePLay-style selection, plus Whaley-style block coverage.
func (s *Suite) Baselines() (Table, error) {
	var rows [][]string
	for _, name := range s.Workloads {
		c, err := s.compileWorkload(name)
		if err != nil {
			return Table{}, err
		}

		// BCG (this paper).
		bcg, err := s.thresholdRun(name, DefaultThreshold)
		if err != nil {
			return Table{}, err
		}
		rows = append(rows, []string{
			name, "bcg",
			fmt.Sprintf("%.1f%%", bcg.Metrics.Coverage*100),
			fmt.Sprintf("%.1f%%", bcg.Metrics.CompletionRate*100),
			fmt.Sprintf("%.1f", bcg.Metrics.AvgTraceLength),
			fmt.Sprintf("%d", bcg.NumTraces),
		})

		// Dynamo NET.
		dctr := &stats.Counters{}
		dyn := baseline.NewDynamo(c.cfg, baseline.DefaultDynamoConfig(), dctr)
		if err := runWithSelector(c, dyn, dyn, dctr, s.MaxSteps); err != nil {
			return Table{}, err
		}
		dm := dctr.Derive()
		rows = append(rows, []string{
			name, "dynamo-net",
			fmt.Sprintf("%.1f%%", dm.Coverage*100),
			fmt.Sprintf("%.1f%%", dm.CompletionRate*100),
			fmt.Sprintf("%.1f", dm.AvgTraceLength),
			fmt.Sprintf("%d", dyn.NumTraces()),
		})

		// rePLay frames.
		rctr := &stats.Counters{}
		rep := baseline.NewReplay(c.cfg, baseline.DefaultReplayConfig(), rctr)
		if err := runWithSelector(c, rep, rep, rctr, s.MaxSteps); err != nil {
			return Table{}, err
		}
		rm := rctr.Derive()
		rows = append(rows, []string{
			name, "replay",
			fmt.Sprintf("%.1f%%", rm.Coverage*100),
			fmt.Sprintf("%.1f%%", rm.CompletionRate*100),
			fmt.Sprintf("%.1f", rm.AvgTraceLength),
			fmt.Sprintf("%d", rep.NumFrames()),
		})

		// Whaley block flagging (coverage only; not a trace selector).
		wctr := &stats.Counters{}
		wh := baseline.NewWhaley(c.cfg, baseline.DefaultWhaleyConfig())
		if err := runWithSelector(c, wh, nil, wctr, s.MaxSteps); err != nil {
			return Table{}, err
		}
		_, opt := wh.HotMethods()
		rows = append(rows, []string{
			name, "whaley",
			fmt.Sprintf("%.1f%%", wh.Coverage()*100),
			"-", "-",
			fmt.Sprintf("%d methods", opt),
		})
	}
	return Table{
		Title:   "Baseline comparison (97% threshold, delay 64 for BCG)",
		Columns: []string{"benchmark", "selector", "coverage", "completion", "avg len", "traces"},
		Rows:    rows,
	}, nil
}

// stepLimited reports whether err is the step-limit trap: a run truncated
// by Suite.MaxSteps is a deliberately scaled-down measurement, not a
// failure.
func stepLimited(err error) bool {
	t, ok := vm.AsTrap(err)
	return ok && t.Kind == vm.TrapStepLimit
}

// runWithSelector executes a compiled workload with an arbitrary hook and
// optional trace source.
func runWithSelector(c *compiled, hook vm.DispatchHook, src trace.Source, ctr *stats.Counters, maxSteps int64) error {
	opts := vm.Options{
		Hook:             hook,
		Counters:         ctr,
		MaxSteps:         maxSteps,
		HookInsideTraces: true,
	}
	if src != nil {
		opts.Traces = src
	}
	m, err := vm.New(c.prog, c.cfg, opts)
	if err != nil {
		return err
	}
	return m.Run()
}

// RunAll renders every table to w, in paper order.
func (s *Suite) RunAll(w io.Writer) error {
	fig, err := s.Figures()
	if err != nil {
		return err
	}
	t1, err := s.TableI()
	if err != nil {
		return err
	}
	t2, err := s.TableII()
	if err != nil {
		return err
	}
	t3, err := s.TableIII()
	if err != nil {
		return err
	}
	t4, err := s.TableIV()
	if err != nil {
		return err
	}
	t5, err := s.TableV()
	if err != nil {
		return err
	}
	t6, measured, err := s.TableVI()
	if err != nil {
		return err
	}
	t7 := s.TableVII(measured)
	bl, err := s.Baselines()
	if err != nil {
		return err
	}
	opt, err := s.Optimizability()
	if err != nil {
		return err
	}
	for _, t := range []Table{fig, t1, t2, t3, t4, t5, t6, t7, bl, opt} {
		if _, err := fmt.Fprintln(w, t.Format()); err != nil {
			return err
		}
	}
	return nil
}

// SortedKeys is a test helper exposing cached run keys deterministically.
func (s *Suite) SortedKeys() []string {
	var keys []string
	for k := range s.gridA {
		keys = append(keys, k)
	}
	for k := range s.gridB {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Optimizability answers the paper's future-work question (§6) — "what
// further improvement can be achieved by applying optimizations to the
// traces" — with what tier 2 did remove: every cached trace of a tier-2 run
// goes through the cache's own Compile, and the table sums the compiler's
// counters. Instruction and op totals are static sums over the compiled
// programs; the removed share weights each trace's instrs − ops by how often
// it completed, over all cached traces (one that fails to compile removed
// nothing).
func (s *Suite) Optimizability() (Table, error) {
	var rows [][]string
	for _, name := range s.Workloads {
		c, err := s.compileWorkload(name)
		if err != nil {
			return Table{}, err
		}
		sess, err := core.NewSession(c.prog, c.cfg, core.SessionOptions{
			Mode:     core.ModeTrace,
			Params:   profile.Params{StartDelay: DefaultDelay, Threshold: DefaultThreshold, DecayInterval: 256},
			Config:   core.Config{CompileTraces: true},
			MaxSteps: s.MaxSteps,
			Facts:    c.facts, // traces register with guard proofs attached
		})
		if err != nil {
			return Table{}, err
		}
		if err := sess.Run(); err != nil && !stepLimited(err) {
			return Table{}, fmt.Errorf("harness: %s: %w", name, err)
		}
		traces := sess.Cache.Traces()
		var compiled, folded, forwarded, dropped, decided int
		var instrs, ops, weightedInstrs, weightedRemoved int64
		for _, t := range traces {
			var n int64
			for _, id := range t.Blocks {
				n += int64(c.cfg.Block(id).NumInstrs())
			}
			weightedInstrs += n * t.Completed
			p := sess.Cache.Compile(t)
			if p == nil {
				continue
			}
			emitted := p.Emitted()
			compiled++
			instrs += p.TotalInstrs
			ops += emitted
			folded += p.Folded
			forwarded += p.Forwarded
			dropped += p.DroppedGuards
			decided += p.Decided
			weightedRemoved += (p.TotalInstrs - emitted) * t.Completed
		}
		removed := 0.0
		if weightedInstrs > 0 {
			removed = float64(weightedRemoved) / float64(weightedInstrs)
		}
		rows = append(rows, []string{
			name,
			fmt.Sprintf("%d", len(traces)),
			fmt.Sprintf("%d", compiled),
			fmt.Sprintf("%d", instrs),
			fmt.Sprintf("%d", ops),
			fmt.Sprintf("%d", folded),
			fmt.Sprintf("%d", forwarded),
			fmt.Sprintf("%d", dropped),
			fmt.Sprintf("%d", decided),
			fmt.Sprintf("%.1f%%", removed*100),
		})
	}
	return Table{
		Title:   "Trace optimizability (what trace.Compile removed; static counts over compiled traces, completion-weighted share)",
		Columns: []string{"benchmark", "traces", "compiled", "instrs", "ops", "folded", "forwarded", "guards dropped", "branches decided", "weighted removed"},
		Rows:    rows,
	}, nil
}

// DecayIntervals swept by AblationDecay.
var DecayIntervals = []uint32{64, 256, 1024, 4096}

// AblationDecay varies the decay interval (the paper fixes 256) and reports
// its effect on signal rate and trace quality: shorter intervals adapt
// faster but signal more; very long intervals approach cumulative counters.
func (s *Suite) AblationDecay() (Table, error) {
	var rows [][]string
	for _, di := range DecayIntervals {
		for _, name := range s.Workloads {
			r, err := s.Run(name, core.ModeTrace, profile.Params{
				StartDelay: DefaultDelay, Threshold: DefaultThreshold, DecayInterval: di,
			})
			if err != nil {
				return Table{}, err
			}
			rows = append(rows, []string{
				fmt.Sprintf("%d", di),
				name,
				fmt.Sprintf("%.1f", r.Metrics.DispatchesPerSignal/1000),
				fmt.Sprintf("%.1f%%", r.Metrics.Coverage*100),
				fmt.Sprintf("%.2f%%", r.Metrics.CompletionRate*100),
				fmt.Sprintf("%.1f", r.Metrics.AvgTraceLength),
			})
		}
	}
	return Table{
		Title:   "Ablation: decay interval (97% threshold, delay 64)",
		Columns: []string{"decay", "benchmark", "kdispatch/signal", "coverage", "completion", "avg len"},
		Rows:    rows,
	}, nil
}

// MaxBlocksSweep swept by AblationMaxBlocks.
var MaxBlocksSweep = []int{4, 16, 64, 256}

// AblationMaxBlocks varies the trace length cap and reports its effect on
// average length, coverage, and the dispatch reduction trace dispatch buys.
func (s *Suite) AblationMaxBlocks(name string) (Table, error) {
	c, err := s.compileWorkload(name)
	if err != nil {
		return Table{}, err
	}
	var rows [][]string
	for _, mb := range MaxBlocksSweep {
		sess, err := core.NewSession(c.prog, c.cfg, core.SessionOptions{
			Mode:     core.ModeTrace,
			Params:   profile.Params{StartDelay: DefaultDelay, Threshold: DefaultThreshold, DecayInterval: 256},
			Config:   core.Config{MaxBlocks: mb},
			MaxSteps: s.MaxSteps,
		})
		if err != nil {
			return Table{}, err
		}
		if err := sess.Run(); err != nil {
			return Table{}, err
		}
		m := sess.Metrics()
		ctr := sess.Counters
		reduction := 0.0
		if ctr.TraceDispatches > 0 {
			reduction = float64(ctr.BlockDispatches) / float64(ctr.TraceDispatches)
		}
		rows = append(rows, []string{
			fmt.Sprintf("%d", mb),
			fmt.Sprintf("%.1f", m.AvgTraceLength),
			fmt.Sprintf("%.1f%%", m.Coverage*100),
			fmt.Sprintf("%.2f%%", m.CompletionRate*100),
			fmt.Sprintf("%.1fx", reduction),
		})
	}
	return Table{
		Title:   fmt.Sprintf("Ablation: max trace length on %s (97%%, delay 64)", name),
		Columns: []string{"max blocks", "avg len", "coverage", "completion", "dispatch reduction"},
		Rows:    rows,
	}, nil
}

// Stability runs the §3.6 cache-stability experiment: a phase-change
// program under the BCG system (informed, incremental trace maintenance)
// and under Dynamo-NET with its flush heuristic (rapid trace creation
// flushes the whole cache). The claim under test: the BCG adapts by
// retiring and rebuilding only the affected traces, keeping coverage and
// completion high across phase changes, where Dynamo churns.
func (s *Suite) Stability() (Table, error) {
	w := workload.Phased()
	prog, pcfg, err := w.Compile()
	if err != nil {
		return Table{}, err
	}

	// BCG.
	sess, err := core.NewSession(prog, pcfg, core.SessionOptions{
		Mode:     core.ModeTrace,
		Params:   profile.Params{StartDelay: DefaultDelay, Threshold: DefaultThreshold, DecayInterval: 256},
		MaxSteps: s.MaxSteps,
	})
	if err != nil {
		return Table{}, err
	}
	if err := sess.Run(); err != nil {
		return Table{}, err
	}
	bm := sess.Metrics()
	bc := sess.Counters

	// Dynamo with the flush heuristic.
	dctr := &stats.Counters{}
	dyn := baseline.NewDynamo(pcfg, baseline.DefaultDynamoConfig(), dctr)
	if err := runWithSelector(&compiled{prog: prog, cfg: pcfg}, dyn, dyn, dctr, s.MaxSteps); err != nil {
		return Table{}, err
	}
	dm := dctr.Derive()

	rows := [][]string{
		{
			"bcg",
			fmt.Sprintf("%d", bc.TracesBuilt),
			fmt.Sprintf("%d", bc.TracesRetired),
			"0",
			fmt.Sprintf("%.1f%%", bm.Coverage*100),
			fmt.Sprintf("%.2f%%", bm.CompletionRate*100),
		},
		{
			"dynamo-net",
			fmt.Sprintf("%d", dctr.TracesBuilt),
			fmt.Sprintf("%d", dctr.TracesRetired),
			fmt.Sprintf("%d", dyn.Flushes()),
			fmt.Sprintf("%.1f%%", dm.Coverage*100),
			fmt.Sprintf("%.2f%%", dm.CompletionRate*100),
		},
	}
	return Table{
		Title:   "Cache stability under phase changes (phased workload; §3.6)",
		Columns: []string{"selector", "built", "retired", "flushes", "coverage", "completion"},
		Rows:    rows,
	}, nil
}
