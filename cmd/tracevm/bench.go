package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"sort"

	"repro/internal/harness"
	"repro/internal/replay"
	"repro/internal/serve"
)

// benchCmd regenerates the paper's evaluation: Tables I–VII, the
// dispatch-granularity figure data, and the baseline comparison. Profiler
// overhead per dispatch is Table VI. Service throughput, latency, memory
// and per-layer costs are measured by the benchmark/ module; the tier-1 vs
// tier-2 in-trace cost by BenchmarkTraceThroughput in the root package.
//
//	tracevm bench                           # everything, in paper order
//	tracevm bench -table 3                  # one table (1..7)
//	tracevm bench -figures                  # dispatch-granularity figure data
//	tracevm bench -baselines                # Dynamo-NET / rePLay / Whaley comparison
//	tracevm bench -repeats 5                # wall-clock repetitions for Tables VI/VII
//	tracevm bench -valueflow-soundness      # differentially check every value-flow
//	                                        # proof on all six workloads; fails
//	                                        # on any false proof
func benchCmd(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	table := fs.Int("table", 0, "regenerate a single table (1..7); 0 = all")
	figures := fs.Bool("figures", false, "print only the figure data")
	baselines := fs.Bool("baselines", false, "print only the baseline comparison")
	optim := fs.Bool("optimizability", false, "print only the trace optimizability study")
	ablations := fs.Bool("ablations", false, "print the decay-interval and max-trace-length ablations")
	stability := fs.Bool("stability", false, "print the phase-change cache stability experiment")
	warmstart := fs.Bool("warmstart", false, "print the snapshot warm-start comparison (cold vs seeded first trace)")
	repeats := fs.Int("repeats", 3, "wall-clock repetitions for overhead tables")
	maxSteps := fs.Int64("maxsteps", 0, "instruction budget per run (0 = unlimited)")
	replayVerify := fs.String("replay-verify", "", "traffic log to replay repeatedly against fresh services; fails if per-program counters diverge")
	replayRounds := fs.Int("replay-rounds", 2, "replay rounds for -replay-verify")
	vfSoundness := fs.Bool("valueflow-soundness", false, "differentially check every value-flow proof against dynamic execution on all workloads; fails on any false proof")
	fs.Parse(args)

	s := harness.NewSuite()
	s.Repeats = *repeats
	s.MaxSteps = *maxSteps
	var t harness.Table
	var err error
	switch {
	case *vfSoundness:
		return s.VerifyValueFlowSoundness(w)
	case *replayVerify != "":
		return runReplayVerify(w, *replayVerify, *replayRounds)
	case *warmstart:
		t, _, err = s.WarmStartTable()
	case *stability:
		t, err = s.Stability()
	case *ablations:
		if t, err = s.AblationDecay(); err == nil {
			fmt.Fprintln(w, t.Format())
			if t, err = s.AblationMaxBlocks("compress"); err == nil {
				fmt.Fprintln(w, t.Format())
				t, err = s.AblationMaxBlocks("scimark")
			}
		}
	case *figures:
		t, err = s.Figures()
	case *baselines:
		t, err = s.Baselines()
	case *optim:
		t, err = s.Optimizability()
	case *table == 0:
		return s.RunAll(w)
	case *table == 1:
		t, err = s.TableI()
	case *table == 2:
		t, err = s.TableII()
	case *table == 3:
		t, err = s.TableIII()
	case *table == 4:
		t, err = s.TableIV()
	case *table == 5:
		t, err = s.TableV()
	case *table == 6:
		t, _, err = s.TableVI()
	case *table == 7:
		var measured []harness.Overhead
		if _, measured, err = s.TableVI(); err == nil {
			t = s.TableVII(measured)
		}
	default:
		return fmt.Errorf("no such table %d (1..7)", *table)
	}
	if err != nil {
		return err
	}
	fmt.Fprintln(w, t.Format())
	return nil
}

// runReplayVerify replays a recorded traffic log repeatedly against fresh
// services and fails if any per-program counter diverges between rounds —
// the CI teeth behind the record/replay determinism claim.
func runReplayVerify(w io.Writer, path string, rounds int) error {
	l, err := replay.Load(path)
	if err != nil {
		return err
	}
	rep, err := harness.VerifyReplayDeterminism(context.Background(), l, rounds, serve.Config{})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "replay-verify: %d records, %d programs, %d rounds\n",
		rep.Records, rep.Programs, rep.Rounds)
	names := make([]string, 0, len(rep.PerProgram))
	for name := range rep.PerProgram {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		c := rep.PerProgram[name]
		fmt.Fprintf(w, "  %-28s runs %3d  instrs %12d  blocks %10d  trace-disp %10d  built %4d\n",
			name, c.Runs, c.Instrs, c.BlockDispatches, c.TraceDispatches, c.TracesBuilt)
	}
	if !rep.Deterministic {
		return fmt.Errorf("replay diverged: %s", rep.Divergence)
	}
	fmt.Fprintln(w, "replay-verify: deterministic")
	return nil
}
