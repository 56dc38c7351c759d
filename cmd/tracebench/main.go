// Command tracebench regenerates the paper's evaluation: Tables I–VII, the
// dispatch-granularity figure data, and the baseline comparison. Profiler
// overhead per dispatch is Table VI. Service throughput, latency, memory
// and per-layer costs are measured by the benchmark/ module; the tier-1 vs
// tier-2 in-trace cost by BenchmarkTraceThroughput in the root package.
//
// Usage:
//
//	tracebench                           # everything, in paper order
//	tracebench -table 3                  # one table (1..7)
//	tracebench -figures                  # dispatch-granularity figure data
//	tracebench -baselines                # Dynamo-NET / rePLay / Whaley comparison
//	tracebench -repeats 5                # wall-clock repetitions for Tables VI/VII
//	tracebench -valueflow-soundness      # differentially check every value-flow
//	                                     # proof on all six workloads; exit 1
//	                                     # on any false proof
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"repro/internal/harness"
	"repro/internal/replay"
	"repro/internal/serve"
)

func main() {
	table := flag.Int("table", 0, "regenerate a single table (1..7); 0 = all")
	figures := flag.Bool("figures", false, "print only the figure data")
	baselines := flag.Bool("baselines", false, "print only the baseline comparison")
	optim := flag.Bool("optimizability", false, "print only the trace optimizability study")
	ablations := flag.Bool("ablations", false, "print the decay-interval and max-trace-length ablations")
	stability := flag.Bool("stability", false, "print the phase-change cache stability experiment")
	warmstart := flag.Bool("warmstart", false, "print the snapshot warm-start comparison (cold vs seeded first trace)")
	repeats := flag.Int("repeats", 3, "wall-clock repetitions for overhead tables")
	maxSteps := flag.Int64("maxsteps", 0, "instruction budget per run (0 = unlimited)")
	replayVerify := flag.String("replay-verify", "", "traffic log to replay repeatedly against fresh services; exits 1 if per-program counters diverge")
	replayRounds := flag.Int("replay-rounds", 2, "replay rounds for -replay-verify")
	vfSoundness := flag.Bool("valueflow-soundness", false, "differentially check every value-flow proof against dynamic execution on all workloads; exits 1 on any false proof")
	flag.Parse()

	s := harness.NewSuite()
	s.Repeats = *repeats
	s.MaxSteps = *maxSteps

	var err error
	switch {
	case *vfSoundness:
		err = s.VerifyValueFlowSoundness(os.Stdout)
	case *replayVerify != "":
		err = runReplayVerify(os.Stdout, *replayVerify, *replayRounds)
	default:
		err = run(s, os.Stdout, *table, *figures, *baselines, *optim, *ablations, *stability, *warmstart)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "tracebench: %v\n", err)
		os.Exit(1)
	}
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

func run(s *harness.Suite, out io.Writer, table int, figures, baselines, optim, ablations, stability, warmstart bool) error {
	switch {
	case warmstart:
		t, _, err := s.WarmStartTable()
		if err != nil {
			return err
		}
		fmt.Fprintln(out, t.Format())
		return nil
	case stability:
		t, err := s.Stability()
		if err != nil {
			return err
		}
		fmt.Fprintln(out, t.Format())
		return nil
	case ablations:
		ad, err := s.AblationDecay()
		if err != nil {
			return err
		}
		fmt.Fprintln(out, ad.Format())
		for _, name := range []string{"compress", "scimark"} {
			am, err := s.AblationMaxBlocks(name)
			if err != nil {
				return err
			}
			fmt.Fprintln(out, am.Format())
		}
		return nil
	case figures:
		t, err := s.Figures()
		if err != nil {
			return err
		}
		fmt.Fprintln(out, t.Format())
		return nil
	case baselines:
		t, err := s.Baselines()
		if err != nil {
			return err
		}
		fmt.Fprintln(out, t.Format())
		return nil
	case optim:
		t, err := s.Optimizability()
		if err != nil {
			return err
		}
		fmt.Fprintln(out, t.Format())
		return nil
	case table == 0:
		return s.RunAll(out)
	}

	var t harness.Table
	var err error
	switch table {
	case 1:
		t, err = s.TableI()
	case 2:
		t, err = s.TableII()
	case 3:
		t, err = s.TableIII()
	case 4:
		t, err = s.TableIV()
	case 5:
		t, err = s.TableV()
	case 6:
		t, _, err = s.TableVI()
	case 7:
		var measured []harness.Overhead
		_, measured, err = s.TableVI()
		if err == nil {
			t = s.TableVII(measured)
		}
	default:
		return fmt.Errorf("no such table %d (1..7)", table)
	}
	if err != nil {
		return err
	}
	fmt.Fprintln(out, t.Format())
	return nil
}
