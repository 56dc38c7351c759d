package main

import (
	"fmt"
	"io"
	"path/filepath"
	"time"

	"repro/internal/analysis"
	"repro/internal/analysis/valueflow"
	"repro/internal/cfg"
	"repro/internal/classfile"
	"repro/internal/core"
	"repro/internal/minijava"
	"repro/internal/profile"
	"repro/internal/snapshot"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/vm"
)

// This file times each layer's public functions directly, one program at a
// time, on the programs the workload's prefix names. Every timed call is a
// span under a per-program "probe" root (negative request ids), so
// spans.json holds the raw material of every per-layer time.

const (
	// probePrograms caps the programs probed per run.
	probePrograms = 40
	// probeFloor is the least time a run-time probe accumulates: a program
	// that runs in microseconds is repeated until its runs add up to this.
	probeFloor = 2 * time.Millisecond
	maxReps    = 30
	// streamCap bounds the captured dispatch stream per program.
	streamCap = 1 << 20
)

type edge struct{ from, to cfg.BlockID }

// lookupHits keeps the lookup replay's result live so the loop is not
// optimised away.
var lookupHits int

// capture is a dispatch hook that records the stream and forwards it.
type capture struct {
	next   vm.DispatchHook
	stream []edge
}

func (c *capture) OnDispatch(from, to cfg.BlockID) {
	if len(c.stream) < streamCap {
		c.stream = append(c.stream, edge{from, to})
	}
	c.next.OnDispatch(from, to)
}

// compiled is one program taken through the five registration steps.
type compiled struct {
	prog  *classfile.Program
	pcfg  *cfg.ProgramCFG
	facts *valueflow.Facts
	hints *analysis.Hints
}

// prober accumulates one value per probed program per metric; the reported
// metric is the median over programs.
type prober struct {
	rec     *recorder
	conf    core.Config // the workload's trace-cache budgets, tier 2 off
	vals    map[string][]float64
	saveDir string
}

func (p *prober) put(name string, v float64) { p.vals[name] = append(p.vals[name], v) }

// probe measures the per-layer metrics that come from direct calls and adds
// them to m.
func (b *bench) probe(rec *recorder, t *traffic, reqs []request, m map[string]metric) error {
	p := &prober{
		rec:     rec,
		conf:    core.Config{MaxTraces: 512, MaxCachedBlocks: 8192},
		vals:    map[string][]float64{},
		saveDir: b.tmp,
	}
	seen := map[int]bool{}
	for i := range reqs {
		if idx := reqs[i].Program; !seen[idx] && len(seen) < probePrograms {
			seen[idx] = true
			if err := p.program(-len(seen), &t.Programs[idx]); err != nil {
				return fmt.Errorf("probing %s: %w", t.Programs[idx].Name, err)
			}
		}
	}
	for _, u := range probeUnits {
		m[u.name] = metric{median(p.vals[u.name]), u.unit}
	}
	return nil
}

// probeUnits lists every metric the probes report.
var probeUnits = []struct{ name, unit string }{
	{"minijava.compile_ms", "ms"}, {"analysis.verify_ms", "ms"}, {"cfg.build_ms", "ms"},
	{"valueflow.compute_ms", "ms"}, {"analysis.hints_ms", "ms"}, {"frontend.blocks", "count"},
	{"core.session_new_us", "us"},
	{"vm.run_ms.plain", "ms"}, {"vm.ns_per_instr.plain", "ns"}, {"vm.ns_per_dispatch.plain", "ns"},
	{"vm.run_ms.profile", "ms"}, {"profile.hook_ns_per_dispatch", "ns"}, {"trace.lookup_ns", "ns"},
	{"vm.run_ms.trace", "ms"}, {"vm.run_ms.trace-deploy", "ms"}, {"vm.tier1_ns_per_trace_block", "ns"},
	{"trace.coverage", "ratio"}, {"trace.completion_rate", "ratio"}, {"trace.avg_length", "count"},
	{"vm.run_ms.tier2", "ms"}, {"vm.tier2_ns_per_trace_block", "ns"}, {"trace.compiled_share", "ratio"},
	{"trace.compile_us_per_trace", "us"}, {"core.traces_compiled", "count"}, {"core.tier_downs", "count"},
	{"vm.compiled_dispatches", "count"},
	{"profile.absorb_ms", "ms"}, {"profile.derive_ms", "ms"}, {"profile.nodes", "count"},
	{"profile.signals", "count"}, {"core.traces_built", "count"},
	{"snapshot.export_ms", "ms"}, {"snapshot.encode_ms", "ms"}, {"snapshot.decode_ms", "ms"},
	{"snapshot.save_ms", "ms"}, {"snapshot.bytes", "B"},
}

// program probes one program under request id rid.
func (p *prober) program(rid int, pr *program) error {
	root := p.rec.begin("probe", rid)
	defer p.rec.finish(root)
	timed := func(name string, f func()) time.Duration { return p.rec.timed(name, root, rid, f) }

	// The five steps Registry.Source takes on a miss.
	var c compiled
	var err error
	p.put("minijava.compile_ms", ms(timed("minijava.compile", func() { c.prog, err = minijava.Compile(pr.Source) })))
	if err != nil {
		return err
	}
	var rep *analysis.Report
	p.put("analysis.verify_ms", ms(timed("analysis.verify", func() { rep = analysis.Verify(c.prog) })))
	if rep.Reject() {
		return rep.Err()
	}
	p.put("cfg.build_ms", ms(timed("cfg.build", func() { c.pcfg, err = cfg.BuildProgram(c.prog) })))
	if err != nil {
		return err
	}
	p.put("valueflow.compute_ms", ms(timed("valueflow.compute", func() { c.facts = valueflow.Compute(c.pcfg) })))
	p.put("analysis.hints_ms", ms(timed("analysis.hints", func() { c.hints = analysis.ComputeHintsWithFacts(c.pcfg, c.facts) })))
	p.put("frontend.blocks", float64(c.pcfg.NumBlocks()))

	// run executes the program reps times in one mode and returns the
	// median wall time with the last run's counters and metrics.
	var sessionNew []float64
	run := func(name string, opts core.SessionOptions, reps int) (time.Duration, *core.Session, error) {
		var walls []float64
		var sess *core.Session
		for i := 0; i < reps; i++ {
			opts.Out = io.Discard
			sessionNew = append(sessionNew, float64(timed("core.session_new", func() {
				sess, err = core.NewSession(c.prog, c.pcfg, opts)
			}))/1e3)
			if err != nil {
				return 0, nil, err
			}
			walls = append(walls, float64(timed(name, func() { err = sess.Run() })))
			if err != nil {
				return 0, nil, err
			}
		}
		return time.Duration(median(walls)), sess, nil
	}

	// Plain dispatch; its first run sizes the repeat count for every mode.
	first, _, err := run("vm.run.plain", core.SessionOptions{Mode: core.ModePlain}, 1)
	if err != nil {
		return err
	}
	reps := int(min(max(probeFloor/max(first, 1), 1), maxReps))
	wall, sess, err := run("vm.run.plain", core.SessionOptions{Mode: core.ModePlain}, reps)
	if err != nil {
		return err
	}
	p.put("vm.run_ms.plain", ms(wall))
	p.put("vm.ns_per_instr.plain", float64(wall)/float64(max(sess.Counters.Instrs, 1)))
	p.put("vm.ns_per_dispatch.plain", float64(wall)/float64(max(sess.Counters.BlockDispatches, 1)))

	// A warm tier-1 profiler, as a worker's shard is after set-up. The
	// warming run's dispatch stream is captured for the two replays below.
	newProfiler := func(conf core.Config) (*core.Profiler, error) {
		prof, err := core.NewProfiler(profile.Params{}, conf, c.hints, c.pcfg.NumBlocks())
		if err != nil {
			return nil, err
		}
		prof.SetProver(valueflow.NewOracle(c.facts, c.pcfg))
		prof.EnableCompile(c.pcfg, c.facts, nil)
		return prof, nil
	}
	p1, err := newProfiler(p.conf)
	if err != nil {
		return err
	}
	var capt capture
	wrap := func(h vm.DispatchHook) vm.DispatchHook { capt.next = h; return &capt }
	if _, _, err = run("vm.run.warm", core.SessionOptions{Mode: core.ModeProfile, Profiler: p1, WrapHook: wrap}, 1); err != nil {
		return err
	}
	if wall, _, err = run("vm.run.profile", core.SessionOptions{Mode: core.ModeProfile, Profiler: p1}, reps); err != nil {
		return err
	}
	p.put("vm.run_ms.profile", ms(wall))
	if n := len(capt.stream); n > 0 {
		p1.Graph.ResetContext()
		d := timed("profile.hook_replay", func() {
			for _, e := range capt.stream {
				p1.Graph.OnDispatch(e.from, e.to)
			}
		})
		p.put("profile.hook_ns_per_dispatch", float64(d)/float64(n))
		ix := p1.Cache.Index()
		d = timed("trace.lookup_replay", func() {
			for _, e := range capt.stream {
				if ix.Lookup(e.from, e.to) != nil {
					lookupHits++
				}
			}
		})
		p.put("trace.lookup_ns", float64(d)/float64(n))
	}
	if wall, sess, err = run("vm.run.trace", core.SessionOptions{Mode: core.ModeTrace, Profiler: p1}, reps); err != nil {
		return err
	}
	p.put("vm.run_ms.trace", ms(wall))
	p.put("vm.tier1_ns_per_trace_block", float64(wall)/float64(max(sess.Counters.BlocksInTraces, 1)))
	tm := sess.Metrics()
	p.put("trace.coverage", tm.Coverage)
	p.put("trace.completion_rate", tm.CompletionRate)
	p.put("trace.avg_length", tm.AvgTraceLength)
	if wall, _, err = run("vm.run.trace-deploy", core.SessionOptions{Mode: core.ModeTraceDeploy, Profiler: p1}, reps); err != nil {
		return err
	}
	p.put("vm.run_ms.trace-deploy", ms(wall))

	// The same with tier 2 on: warm once (traces tier up during the run),
	// then time.
	conf2 := p.conf
	conf2.CompileTraces = true
	p2, err := newProfiler(conf2)
	if err != nil {
		return err
	}
	_, warm, err := run("vm.run.warm", core.SessionOptions{Mode: core.ModeTrace, Profiler: p2}, 1)
	if err != nil {
		return err
	}
	if wall, sess, err = run("vm.run.tier2", core.SessionOptions{Mode: core.ModeTrace, Profiler: p2}, reps); err != nil {
		return err
	}
	p.put("vm.run_ms.tier2", ms(wall))
	p.put("vm.tier2_ns_per_trace_block", float64(wall)/float64(max(sess.Counters.BlocksInTraces, 1)))
	p.put("trace.compiled_share", float64(sess.Counters.CompiledDispatches)/float64(max(sess.Counters.TraceDispatches, 1)))
	p.put("vm.compiled_dispatches", float64(sess.Counters.CompiledDispatches))
	p.put("core.traces_compiled", float64(warm.Counters.TracesCompiled))
	p.put("core.tier_downs", float64(warm.Counters.TierDowns+sess.Counters.TierDowns))
	p.put("core.session_new_us", median(sessionNew))

	// Lowering cost: every live trace compiled through a cache with an
	// empty memo, so each call does the work.
	if live := p2.Cache.Traces(); len(live) > 0 {
		cc := core.NewCache(conf2, &stats.Counters{})
		cc.SetCompileEnv(c.pcfg, c.facts)
		var progs []*trace.Program
		d := timed("trace.compile", func() {
			for _, t := range live {
				progs = append(progs, cc.Compile(t))
			}
		})
		p.put("trace.compile_us_per_trace", float64(d)/1e3/float64(len(progs)))
	}

	// An epoch merge of the two warmed profilers into a fresh one.
	merged, err := newProfiler(p.conf)
	if err != nil {
		return err
	}
	var mctr stats.Counters
	merged.SetCounters(&mctr)
	p.put("profile.absorb_ms", ms(timed("profile.absorb", func() {
		if _, err = merged.Absorb(p1); err == nil {
			_, err = merged.Absorb(p2)
		}
	})))
	if err != nil {
		return err
	}
	p.put("profile.derive_ms", ms(timed("profile.derive", merged.DeriveStates)))
	p.put("profile.nodes", float64(merged.Graph.NumNodes()))
	p.put("profile.signals", float64(mctr.Signals))
	p.put("core.traces_built", float64(mctr.TracesBuilt))

	// What a snapshot commit of this program costs.
	var snap, back *snapshot.Snapshot
	var data []byte
	p.put("snapshot.export_ms", ms(timed("snapshot.export", func() { snap = p1.ExportSnapshot(pr.Name, pr.Name) })))
	p.put("snapshot.encode_ms", ms(timed("snapshot.encode", func() { data = snapshot.Encode(snap) })))
	p.put("snapshot.decode_ms", ms(timed("snapshot.decode", func() { back, err = snapshot.Decode(data) })))
	if err != nil {
		return err
	}
	if len(back.Nodes) != len(snap.Nodes) {
		return fmt.Errorf("snapshot round trip: %d nodes in, %d out", len(snap.Nodes), len(back.Nodes))
	}
	p.put("snapshot.save_ms", ms(timed("snapshot.save", func() {
		err = snapshot.Save(filepath.Join(p.saveDir, "probe.tsnap"), snap)
	})))
	p.put("snapshot.bytes", float64(len(data)))
	return err
}
