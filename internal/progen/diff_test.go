package progen_test

import (
	"bytes"
	"testing"

	"repro/internal/cfg"
	"repro/internal/classfile"
	"repro/internal/core"
	"repro/internal/minijava"
	"repro/internal/opt"
	"repro/internal/progen"
	"repro/internal/stats"
)

// runUnder executes a compiled program under one mode and returns output.
func runUnder(t *testing.T, prog *classfile.Program, pcfg *cfg.ProgramCFG, mode core.Mode) string {
	t.Helper()
	out, _ := runWith(t, prog, pcfg, mode, core.Config{})
	return out
}

// runWith is runUnder with a trace-cache configuration, also returning the
// run's counters.
func runWith(t *testing.T, prog *classfile.Program, pcfg *cfg.ProgramCFG, mode core.Mode, conf core.Config) (string, stats.Counters) {
	t.Helper()
	var out bytes.Buffer
	s, err := core.NewSession(prog, pcfg, core.SessionOptions{
		Mode:     mode,
		Config:   conf,
		Out:      &out,
		MaxSteps: 100_000_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatalf("mode %s: %v", mode, err)
	}
	return out.String(), s.Counters.Snapshot()
}

// TestDifferentialEnginesAndOptimizer is the pipeline's differential
// tester: for each random program, every engine and the optimized build
// must print exactly the same thing.
func TestDifferentialEnginesAndOptimizer(t *testing.T) {
	seeds := 60
	if testing.Short() {
		seeds = 10
	}
	modes := []core.Mode{core.ModePlain, core.ModeInstr, core.ModeProfile, core.ModeTrace, core.ModeTraceDeploy}
	var fusedDispatches int64
	for seed := int64(0); seed < int64(seeds); seed++ {
		src := progen.Generate(seed, progen.Config{})
		prog, err := minijava.Compile(src)
		if err != nil {
			t.Fatalf("seed %d: compile failed: %v\nprogram:\n%s", seed, err, src)
		}
		pcfg, err := cfg.BuildProgram(prog)
		if err != nil {
			t.Fatalf("seed %d: cfg failed: %v", seed, err)
		}

		want, plain := runWith(t, prog, pcfg, core.ModePlain, core.Config{})
		for _, mode := range modes[1:] {
			if got := runUnder(t, prog, pcfg, mode); got != want {
				t.Errorf("seed %d: mode %s diverged:\nwant %q\ngot  %q\nprogram:\n%s",
					seed, mode, want, got, src)
			}
		}

		// Both forms of trace execution — every trace on its unfused
		// program, and every trace fused on its first re-entry — must do
		// exactly the work of block dispatch, not just print the same.
		for _, leg := range []struct {
			name string
			conf core.Config
		}{
			{"unfused", core.Config{}},
			{"fused", core.Config{CompileTraces: true, TierUpDispatches: 1}},
		} {
			got, c := runWith(t, prog, pcfg, core.ModeTrace, leg.conf)
			if got != want {
				t.Errorf("seed %d: %s traces diverged:\nwant %q\ngot  %q\nprogram:\n%s",
					seed, leg.name, want, got, src)
			}
			if c.Instrs != plain.Instrs || c.BlockDispatches != plain.BlockDispatches || c.MethodCalls != plain.MethodCalls {
				t.Errorf("seed %d: %s traces did different work: instrs %d, blocks %d, calls %d; plain %d, %d, %d\nprogram:\n%s",
					seed, leg.name, c.Instrs, c.BlockDispatches, c.MethodCalls,
					plain.Instrs, plain.BlockDispatches, plain.MethodCalls, src)
			}
			fusedDispatches += c.CompiledDispatches
		}

		// Optimized build (fresh compile so the unoptimized runs above are
		// untouched).
		oprog, err := minijava.Compile(src)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := opt.Program(oprog); err != nil {
			t.Fatalf("seed %d: optimizer failed: %v\nprogram:\n%s", seed, err, src)
		}
		ocfg, err := cfg.BuildProgram(oprog)
		if err != nil {
			t.Fatalf("seed %d: cfg of optimized program failed: %v", seed, err)
		}
		if got := runUnder(t, oprog, ocfg, core.ModePlain); got != want {
			t.Errorf("seed %d: optimizer diverged:\nwant %q\ngot  %q\nprogram:\n%s",
				seed, want, got, src)
		}
	}
	if fusedDispatches == 0 {
		t.Errorf("no fused program was dispatched across %d seeds; the fused leg is vacuous", seeds)
	}
}

func TestGeneratorDeterministic(t *testing.T) {
	a := progen.Generate(7, progen.Config{})
	b := progen.Generate(7, progen.Config{})
	if a != b {
		t.Error("same seed produced different programs")
	}
	c := progen.Generate(8, progen.Config{})
	if a == c {
		t.Error("different seeds produced identical programs")
	}
}

func TestGeneratorProgramsCompile(t *testing.T) {
	for seed := int64(100); seed < 140; seed++ {
		src := progen.Generate(seed, progen.Config{Funcs: 5, MaxDepth: 4})
		if _, err := minijava.Compile(src); err != nil {
			t.Errorf("seed %d: %v\nprogram:\n%s", seed, err, src)
		}
	}
}
