// Machine-readable benchmark reports and the CI bench gate. BenchReport
// measures the paper's central performance claim — per-dispatch profiler
// overhead — for every workload and serializes it as JSON
// (cmd/tracebench -bench-json); CompareBenchReports checks a fresh report
// against a committed baseline and reports regressions
// (cmd/tracebench -bench-gate).
package harness

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/cfg"
	"repro/internal/core"
	"repro/internal/profile"
	"repro/internal/stats"
)

// BenchSchema identifies the JSON layout of BenchReport. Bump on any
// incompatible field change so the CI gate fails loudly instead of
// comparing mismatched reports.
const BenchSchema = "tracebench/bench/v1"

// BenchWorkload is one workload's overhead measurement.
type BenchWorkload struct {
	Name       string `json:"name"`
	Dispatches int64  `json:"dispatches"`
	// PlainNsPerDispatch and ProfiledNsPerDispatch are wall-clock
	// (minimum of Repeats runs) divided by block dispatches, without and
	// with the BCG profiler hook attached.
	PlainNsPerDispatch    float64 `json:"plain_ns_per_dispatch"`
	ProfiledNsPerDispatch float64 `json:"profiled_ns_per_dispatch"`
	// OverheadNsPerDispatch = profiled − plain; may be slightly negative
	// in the noise when the profiler is effectively free.
	OverheadNsPerDispatch float64 `json:"overhead_ns_per_dispatch"`
	// OverheadPct normalizes the overhead by the plain dispatch cost
	// (machine-independent, which is what the CI gate compares).
	OverheadPct float64 `json:"overhead_pct"`
	// AllocsPerDispatch is heap allocations per block dispatch over a
	// whole profiled run (includes VM frame churn and BCG warm-up).
	AllocsPerDispatch float64 `json:"allocs_per_dispatch"`

	// Tier throughput: wall clock of a full trace-mode run divided by the
	// blocks executed inside traces, at tier 1 (every trace on its unfused
	// program) and tier 2 (hot traces promoted to fused programs). The
	// denominator is identical at both tiers — one executor runs both forms
	// and counts blocks the same way — so the difference is the fused
	// form's per-trace-block saving. Additive fields; the schema version
	// stays.
	Tier1NsPerTraceBlock float64 `json:"tier1_ns_per_trace_block,omitempty"`
	Tier2NsPerTraceBlock float64 `json:"tier2_ns_per_trace_block,omitempty"`
	// TierSpeedupPct is the relative in-trace dispatch cost drop tier 2
	// buys: (tier1 − tier2) / tier1 × 100. Negative means tier 2 lost.
	TierSpeedupPct float64 `json:"tier_speedup_pct,omitempty"`
	// CompiledShare is the fraction of the tier-2 run's trace dispatches
	// served by a compiled form (how much of the run the claim covers).
	CompiledShare float64 `json:"compiled_share,omitempty"`
}

// BenchReport is the full benchmark trajectory record.
type BenchReport struct {
	Schema    string `json:"schema"`
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	Repeats   int    `json:"repeats"`
	MaxSteps  int64  `json:"max_steps"`
	// HookFastPathAllocs is the steady-state allocations per profiler hook
	// invocation on a warmed branch context; the dense-index BCG pins it
	// at exactly 0.
	HookFastPathAllocs float64         `json:"hook_fast_path_allocs"`
	Notes              string          `json:"notes,omitempty"`
	Workloads          []BenchWorkload `json:"workloads"`
}

// BenchReport measures every workload in the suite and assembles the
// report. Wall-clock fields honour Suite.Repeats and Suite.MaxSteps.
func (s *Suite) BenchReport() (BenchReport, error) {
	rep := BenchReport{
		Schema:             BenchSchema,
		GoVersion:          runtime.Version(),
		GOOS:               runtime.GOOS,
		GOARCH:             runtime.GOARCH,
		Repeats:            s.Repeats,
		MaxSteps:           s.MaxSteps,
		HookFastPathAllocs: HookFastPathAllocs(),
	}
	for _, name := range s.Workloads {
		o, err := s.MeasureOverhead(name)
		if err != nil {
			return BenchReport{}, err
		}
		allocs, err := s.measureRunAllocs(name)
		if err != nil {
			return BenchReport{}, err
		}
		w := BenchWorkload{
			Name:              name,
			Dispatches:        o.Dispatches,
			AllocsPerDispatch: allocs,
		}
		if o.Dispatches > 0 {
			w.PlainNsPerDispatch = float64(o.PlainWall.Nanoseconds()) / float64(o.Dispatches)
			w.ProfiledNsPerDispatch = float64(o.ProfileWall.Nanoseconds()) / float64(o.Dispatches)
			w.OverheadNsPerDispatch = w.ProfiledNsPerDispatch - w.PlainNsPerDispatch
			if w.PlainNsPerDispatch > 0 {
				w.OverheadPct = w.OverheadNsPerDispatch / w.PlainNsPerDispatch * 100
			}
		}
		tt, err := s.MeasureTierThroughput(name)
		if err != nil {
			return BenchReport{}, err
		}
		w.Tier1NsPerTraceBlock = tt.Tier1NsPerBlock
		w.Tier2NsPerTraceBlock = tt.Tier2NsPerBlock
		w.TierSpeedupPct = tt.SpeedupPct
		w.CompiledShare = tt.CompiledShare
		rep.Workloads = append(rep.Workloads, w)
	}
	return rep, nil
}

// BenchTierUpDispatches is the promotion threshold the tier-throughput
// measurement runs with: low enough that hot traces compile early in a
// step-bounded run, so the compiled forms serve most trace dispatches and
// the tier-2 leg measures compiled execution rather than warm-up.
const BenchTierUpDispatches = 4

// TierThroughput is one workload's in-trace dispatch cost at each execution
// tier: minimum-of-N wall clock of a full trace-mode run divided by the
// blocks executed inside traces, without and with superinstruction
// compilation of hot traces.
type TierThroughput struct {
	Workload    string
	Tier1Wall   time.Duration
	Tier2Wall   time.Duration
	TraceBlocks int64 // blocks executed inside traces (tier-1 run)
	// Tier1NsPerBlock and Tier2NsPerBlock are wall nanoseconds per
	// in-trace block at each tier; SpeedupPct is the relative drop
	// (negative when tier 2 lost).
	Tier1NsPerBlock float64
	Tier2NsPerBlock float64
	SpeedupPct      float64
	// CompiledShare is the fraction of tier-2 trace dispatches served by a
	// compiled form.
	CompiledShare float64
}

// MeasureTierThroughput times one workload's trace-mode run at tier 1
// (compilation off) and tier 2 (hot traces promoted to superinstruction
// form after BenchTierUpDispatches dispatches). Both legs run with
// value-flow facts attached so tier 2 gets its guard proofs, and both use
// the same profiler parameters — the config tier knobs are the only
// difference. Repeats are interleaved (tier1, tier2, tier1, ...) so
// machine-load drift biases both tiers equally; the minimum wall per tier
// is kept.
func (s *Suite) MeasureTierThroughput(name string) (TierThroughput, error) {
	c, err := s.compileWorkload(name)
	if err != nil {
		return TierThroughput{}, err
	}
	repeats := s.Repeats
	if repeats <= 0 {
		repeats = 3
	}

	timedOnce := func(config core.Config) (time.Duration, *stats.Counters, error) {
		sess, err := core.NewSession(c.prog, c.cfg, core.SessionOptions{
			Mode:     core.ModeTrace,
			Params:   profile.Params{StartDelay: DefaultDelay, Threshold: DefaultThreshold, DecayInterval: 256},
			Config:   config,
			Facts:    c.facts,
			MaxSteps: s.MaxSteps,
		})
		if err != nil {
			return 0, nil, err
		}
		runtime.GC()
		start := time.Now()
		if err := sess.Run(); err != nil && !stepLimited(err) {
			return 0, nil, err
		}
		return time.Since(start), sess.Counters, nil
	}

	configs := []core.Config{
		{},
		{CompileTraces: true, TierUpDispatches: BenchTierUpDispatches},
	}
	walls := make([]time.Duration, len(configs))
	ctrs := make([]*stats.Counters, len(configs))
	for i := 0; i < repeats; i++ {
		for ci, config := range configs {
			w, ctr, err := timedOnce(config)
			if err != nil {
				return TierThroughput{}, err
			}
			if ctrs[ci] == nil || w < walls[ci] {
				walls[ci] = w
				ctrs[ci] = ctr
			}
		}
	}

	tt := TierThroughput{
		Workload:    name,
		Tier1Wall:   walls[0],
		Tier2Wall:   walls[1],
		TraceBlocks: ctrs[0].BlocksInTraces,
	}
	if tt.TraceBlocks > 0 {
		tt.Tier1NsPerBlock = float64(walls[0].Nanoseconds()) / float64(tt.TraceBlocks)
	}
	if b2 := ctrs[1].BlocksInTraces; b2 > 0 {
		tt.Tier2NsPerBlock = float64(walls[1].Nanoseconds()) / float64(b2)
	}
	if tt.Tier1NsPerBlock > 0 {
		tt.SpeedupPct = (tt.Tier1NsPerBlock - tt.Tier2NsPerBlock) / tt.Tier1NsPerBlock * 100
	}
	if td := ctrs[1].TraceDispatches; td > 0 {
		tt.CompiledShare = float64(ctrs[1].CompiledDispatches) / float64(td)
	}
	return tt, nil
}

// measureRunAllocs counts heap allocations per block dispatch over one
// profiled run. Session construction is excluded; the run itself (VM frame
// churn, BCG node/edge creation during warm-up) is included.
func (s *Suite) measureRunAllocs(name string) (float64, error) {
	c, err := s.compileWorkload(name)
	if err != nil {
		return 0, err
	}
	sess, err := core.NewSession(c.prog, c.cfg, core.SessionOptions{
		Mode:     core.ModeProfile,
		Params:   profile.Params{StartDelay: DefaultDelay, Threshold: DefaultThreshold, DecayInterval: 256},
		MaxSteps: s.MaxSteps,
	})
	if err != nil {
		return 0, err
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if err := sess.Run(); err != nil && !stepLimited(err) {
		return 0, err
	}
	runtime.ReadMemStats(&m1)
	if sess.Counters.BlockDispatches == 0 {
		return 0, nil
	}
	return float64(m1.Mallocs-m0.Mallocs) / float64(sess.Counters.BlockDispatches), nil
}

// HookFastPathAllocs measures steady-state allocations per OnDispatch on a
// warmed branch context — the paper's "two comparisons, two pointer
// evaluations, one assignment" fast path. The arena/free-list BCG keeps
// this at exactly 0.
func HookFastPathAllocs() float64 {
	g, err := profile.New(profile.DefaultParams(), nil, nil)
	if err != nil {
		return -1
	}
	seq := []cfg.BlockID{1, 2, 3, 4}
	dispatch := func(rounds int) {
		for r := 0; r < rounds; r++ {
			for i := 1; i < len(seq); i++ {
				g.OnDispatch(seq[i-1], seq[i])
			}
			g.OnDispatch(seq[len(seq)-1], seq[0])
		}
	}
	dispatch(1024) // warm: past start delay and several decay cycles
	const rounds = 25_000
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	dispatch(rounds)
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(rounds*len(seq))
}

// GateOptions are the regression thresholds of the CI bench gate.
type GateOptions struct {
	// RelOverheadPct is the allowed relative growth of a workload's
	// overhead_pct (0.10 = a 10% regression fails).
	RelOverheadPct float64
	// AbsOverheadPct is the absolute slack in percentage points, the noise
	// floor for workloads whose overhead is near (or below) zero. A single
	// workload's wall clock on a shared CI runner is noisy, so this floor
	// is generous; the mean and allocation gates below are the tight ones.
	AbsOverheadPct float64
	// MeanAbsOverheadPct is the absolute slack for the suite-wide mean
	// overhead_pct. Noise averages out across workloads, so the mean gate
	// runs much tighter than the per-workload one and is the primary
	// wall-clock regression signal.
	MeanAbsOverheadPct float64
	// RelAllocs is the allowed relative growth of a workload's
	// allocs_per_dispatch. Allocation counts are deterministic, so this
	// gate is tight and catches hot-path regressions wall clock cannot.
	RelAllocs float64
	// AbsAllocs is the absolute allocs/dispatch slack under RelAllocs.
	AbsAllocs float64
	// MinTierWins is the number of workloads on which the tier-2 compiled
	// form must beat tier-1 in-trace dispatch cost outright (speedup > 0).
	// Applied whenever the current report carries tier data; 0 disables.
	MinTierWins int
	// TierSpeedupSlackPp is the allowed per-workload drop, in percentage
	// points, of the tier-2 speedup below the baseline report's. Generous
	// for the same reason AbsOverheadPct is: single-workload wall clock on
	// a shared runner is noisy; MinTierWins is the structural floor.
	TierSpeedupSlackPp float64
}

// DefaultGateOptions returns the thresholds the CI job uses: >10% relative
// regression in per-dispatch profiler overhead fails — judged tightly on
// the suite mean (3pp absolute floor) and loosely per workload (15pp floor
// for single-run noise) — as does >10% growth in allocations per dispatch
// or any allocation on the hook fast path.
func DefaultGateOptions() GateOptions {
	return GateOptions{
		RelOverheadPct:     0.10,
		AbsOverheadPct:     15.0,
		MeanAbsOverheadPct: 3.0,
		RelAllocs:          0.10,
		AbsAllocs:          0.005,
		MinTierWins:        3,
		TierSpeedupSlackPp: 15.0,
	}
}

// CompareBenchReports checks cur against base and returns a human-readable
// violation per regression (empty means the gate passes). Raw ns/dispatch
// is machine-dependent, so the gate compares overhead_pct — profiled vs
// plain on the same machine and run — plus the zero-allocation pin on the
// hook fast path.
func CompareBenchReports(base, cur BenchReport, opt GateOptions) []string {
	var violations []string
	if base.Schema != BenchSchema || cur.Schema != BenchSchema {
		return []string{fmt.Sprintf("schema mismatch: baseline %q, current %q, want %q", base.Schema, cur.Schema, BenchSchema)}
	}
	if cur.HookFastPathAllocs > 0 {
		violations = append(violations, fmt.Sprintf(
			"hook fast path allocates: %.4f allocs/dispatch, want 0", cur.HookFastPathAllocs))
	}
	baseByName := make(map[string]BenchWorkload, len(base.Workloads))
	for _, w := range base.Workloads {
		baseByName[w.Name] = w
	}
	var baseMeanSum, curMeanSum float64
	var meanN int
	for _, w := range cur.Workloads {
		b, ok := baseByName[w.Name]
		if !ok {
			continue // new workload: nothing to compare against
		}
		delete(baseByName, w.Name)
		baseMeanSum += b.OverheadPct
		curMeanSum += w.OverheadPct
		meanN++
		limit := b.OverheadPct + opt.AbsOverheadPct
		if rel := b.OverheadPct * (1 + opt.RelOverheadPct); rel > limit {
			limit = rel
		}
		if w.OverheadPct > limit {
			violations = append(violations, fmt.Sprintf(
				"%s: profiler overhead %.2f%% of dispatch cost exceeds gate %.2f%% (baseline %.2f%%; %.1f vs %.1f ns/dispatch overhead)",
				w.Name, w.OverheadPct, limit, b.OverheadPct, w.OverheadNsPerDispatch, b.OverheadNsPerDispatch))
		}
		if allocLimit := b.AllocsPerDispatch*(1+opt.RelAllocs) + opt.AbsAllocs; w.AllocsPerDispatch > allocLimit {
			violations = append(violations, fmt.Sprintf(
				"%s: %.4f allocs/dispatch exceeds gate %.4f (baseline %.4f)",
				w.Name, w.AllocsPerDispatch, allocLimit, b.AllocsPerDispatch))
		}
		// Per-workload tier regression: the compiled tier's relative win
		// must not collapse below the baseline's minus the slack. Only when
		// both reports measured this workload's tiers (a pre-tier baseline
		// has no claim to compare against).
		if b.Tier1NsPerTraceBlock > 0 && w.Tier1NsPerTraceBlock > 0 {
			if floor := b.TierSpeedupPct - opt.TierSpeedupSlackPp; w.TierSpeedupPct < floor {
				violations = append(violations, fmt.Sprintf(
					"%s: tier-2 in-trace speedup %.1f%% fell below gate %.1f%% (baseline %.1f%%; %.1f vs %.1f ns/trace-block at tier 2)",
					w.Name, w.TierSpeedupPct, floor, b.TierSpeedupPct,
					w.Tier2NsPerTraceBlock, b.Tier2NsPerTraceBlock))
			}
		}
	}
	if meanN > 0 {
		baseMean := baseMeanSum / float64(meanN)
		curMean := curMeanSum / float64(meanN)
		limit := baseMean*(1+opt.RelOverheadPct) + opt.MeanAbsOverheadPct
		if curMean > limit {
			violations = append(violations, fmt.Sprintf(
				"suite mean profiler overhead %.2f%% of dispatch cost exceeds gate %.2f%% (baseline mean %.2f%% over %d workloads)",
				curMean, limit, baseMean, meanN))
		}
	}
	for name := range baseByName {
		violations = append(violations, fmt.Sprintf("%s: present in baseline but missing from current report", name))
	}

	// Structural tier floor: with tier data present, the compiled form must
	// beat the block-by-block trace walk outright on at least MinTierWins
	// workloads — the central claim of the second tier, independent of any
	// baseline numbers. A current report that dropped the tier measurement
	// while the baseline carries it is itself a violation: silently losing
	// the gate's teeth must not read as a pass.
	baseHasTier, curHasTier := reportHasTier(base), reportHasTier(cur)
	if baseHasTier && !curHasTier {
		violations = append(violations, "baseline carries tier-throughput data but the current report measured none")
	}
	if curHasTier && opt.MinTierWins > 0 {
		wins := 0
		for _, w := range cur.Workloads {
			if w.Tier1NsPerTraceBlock > 0 && w.TierSpeedupPct > 0 {
				wins++
			}
		}
		if wins < opt.MinTierWins {
			violations = append(violations, fmt.Sprintf(
				"tier-2 compiled traces beat tier-1 on only %d of %d workloads, want at least %d",
				wins, len(cur.Workloads), opt.MinTierWins))
		}
	}
	return violations
}

// reportHasTier reports whether any workload in rep carries a tier
// throughput measurement (pre-tier reports decode with the fields zero).
func reportHasTier(rep BenchReport) bool {
	for _, w := range rep.Workloads {
		if w.Tier1NsPerTraceBlock > 0 {
			return true
		}
	}
	return false
}

// FormatBenchReport renders the report as an aligned table for stdout.
func FormatBenchReport(rep BenchReport) string {
	t := Table{
		Title: fmt.Sprintf("Benchmark report (%s, %s/%s, repeats %d, maxsteps %d, hook allocs %.4f)",
			rep.GoVersion, rep.GOOS, rep.GOARCH, rep.Repeats, rep.MaxSteps, rep.HookFastPathAllocs),
		Columns: []string{"benchmark", "dispatches (M)", "plain ns/disp", "profiled ns/disp", "overhead ns", "overhead %", "allocs/disp", "t1 ns/tblock", "t2 ns/tblock", "tier2 gain", "compiled share"},
	}
	for _, w := range rep.Workloads {
		tier1, tier2, gain, share := "-", "-", "-", "-"
		if w.Tier1NsPerTraceBlock > 0 {
			tier1 = fmt.Sprintf("%.1f", w.Tier1NsPerTraceBlock)
			tier2 = fmt.Sprintf("%.1f", w.Tier2NsPerTraceBlock)
			gain = fmt.Sprintf("%.1f%%", w.TierSpeedupPct)
			share = fmt.Sprintf("%.0f%%", w.CompiledShare*100)
		}
		t.Rows = append(t.Rows, []string{
			w.Name,
			fmt.Sprintf("%.2f", float64(w.Dispatches)/1e6),
			fmt.Sprintf("%.1f", w.PlainNsPerDispatch),
			fmt.Sprintf("%.1f", w.ProfiledNsPerDispatch),
			fmt.Sprintf("%.1f", w.OverheadNsPerDispatch),
			fmt.Sprintf("%.1f%%", w.OverheadPct),
			fmt.Sprintf("%.3f", w.AllocsPerDispatch),
			tier1, tier2, gain, share,
		})
	}
	return t.Format()
}
