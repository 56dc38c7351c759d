// Command tracebench regenerates the paper's evaluation: Tables I–VII, the
// dispatch-granularity figure data, and the baseline comparison. It also
// maintains the repo's benchmark trajectory: -bench-json emits a
// machine-readable overhead report, and -bench-gate compares a report
// against a committed baseline for the CI regression gate. Service
// throughput, latency and memory are measured by the benchmark/ module,
// not here.
//
// Usage:
//
//	tracebench                           # everything, in paper order
//	tracebench -table 3                  # one table (1..7)
//	tracebench -figures                  # dispatch-granularity figure data
//	tracebench -baselines                # Dynamo-NET / rePLay / Whaley comparison
//	tracebench -repeats 5                # wall-clock repetitions for Tables VI/VII
//	tracebench -bench-json               # measure, write BENCH_<date>.json
//	tracebench -bench-json -out F.json   # measure, write F.json
//	tracebench -bench-gate BENCH_baseline.json -in F.json
//	                                     # compare F.json to the baseline;
//	                                     # exit 1 on >10% overhead regression
//	tracebench -valueflow-soundness      # differentially check every value-flow
//	                                     # proof on all six workloads; exit 1
//	                                     # on any false proof
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

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
	benchJSON := flag.Bool("bench-json", false, "measure per-workload profiler overhead and write a JSON report")
	out := flag.String("out", "", "output path for -bench-json (default BENCH_<date>.json)")
	benchGate := flag.String("bench-gate", "", "baseline report to gate against; exits 1 on regression")
	in := flag.String("in", "", "pre-measured report for -bench-gate (default: measure fresh)")
	gateRel := flag.Float64("gate-rel", harness.DefaultGateOptions().RelOverheadPct, "allowed relative overhead regression (0.10 = 10%)")
	gateAbs := flag.Float64("gate-abs", harness.DefaultGateOptions().AbsOverheadPct, "absolute overhead slack in percentage points")
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
	case *benchGate != "":
		opt := harness.DefaultGateOptions()
		opt.RelOverheadPct = *gateRel
		opt.AbsOverheadPct = *gateAbs
		err = runBenchGate(s, os.Stdout, *benchGate, *in, opt)
	case *benchJSON:
		err = runBenchJSON(s, os.Stdout, *out)
	default:
		err = run(s, os.Stdout, *table, *figures, *baselines, *optim, *ablations, *stability, *warmstart)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "tracebench: %v\n", err)
		os.Exit(1)
	}
}

// runBenchJSON measures the suite's overhead report and writes it to path
// (default BENCH_<date>.json), echoing the table to w.
func runBenchJSON(s *harness.Suite, w io.Writer, path string) error {
	rep, err := s.BenchReport()
	if err != nil {
		return err
	}
	if path == "" {
		path = fmt.Sprintf("BENCH_%s.json", time.Now().Format("2006-01-02"))
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintln(w, harness.FormatBenchReport(rep))
	fmt.Fprintf(w, "wrote %s\n", path)
	return nil
}

// runBenchGate loads the baseline, obtains the current report (from inPath
// if given, else by measuring fresh), and fails on regressions.
func runBenchGate(s *harness.Suite, w io.Writer, basePath, inPath string, opt harness.GateOptions) error {
	base, err := loadBenchReport(basePath)
	if err != nil {
		return fmt.Errorf("baseline: %w", err)
	}
	var cur harness.BenchReport
	if inPath != "" {
		cur, err = loadBenchReport(inPath)
		if err != nil {
			return fmt.Errorf("current report: %w", err)
		}
	} else {
		cur, err = s.BenchReport()
		if err != nil {
			return err
		}
	}
	violations := harness.CompareBenchReports(base, cur, opt)
	if len(violations) == 0 {
		fmt.Fprintf(w, "bench gate passed: %d workloads within %.0f%% (+%.1fpp) of baseline\n",
			len(cur.Workloads), opt.RelOverheadPct*100, opt.AbsOverheadPct)
		return nil
	}
	for _, v := range violations {
		fmt.Fprintf(w, "bench gate violation: %s\n", v)
	}
	return fmt.Errorf("%d benchmark regression(s) against %s", len(violations), basePath)
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

func loadBenchReport(path string) (harness.BenchReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return harness.BenchReport{}, err
	}
	var rep harness.BenchReport
	if err := json.Unmarshal(data, &rep); err != nil {
		return harness.BenchReport{}, fmt.Errorf("%s: %w", path, err)
	}
	return rep, nil
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
