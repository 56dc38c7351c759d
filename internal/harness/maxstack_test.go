package harness_test

import (
	"fmt"
	"io"
	"testing"

	"repro/internal/cfg"
	"repro/internal/classfile"
	"repro/internal/core"
	"repro/internal/minijava"
	"repro/internal/opt"
	"repro/internal/progen"
	"repro/internal/vm"
	"repro/internal/workload"
)

// TestMaxStackBoundsOperandStack pins the bound pushFrame sizes every
// operand stack by: at each executed block entry — ordinary dispatch,
// unfused traces and fused traces — the live stack holds at most the
// method's verifier-computed MaxStack values. It covers the six workloads
// and a progen batch, each generated program also after opt.Program (whose
// Reverify refreshes MaxStack). A violation is a verifier bug to report,
// not a bound to loosen.
func TestMaxStackBoundsOperandStack(t *testing.T) {
	type subject struct {
		name string
		prog *classfile.Program
		pcfg *cfg.ProgramCFG
	}
	var subjects []subject
	for _, name := range workload.Names() {
		w, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		prog, pcfg, err := w.Compile()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		subjects = append(subjects, subject{name, prog, pcfg})
	}
	seeds := int64(20)
	if testing.Short() {
		seeds = 5
	}
	for seed := int64(0); seed < seeds; seed++ {
		src := progen.Generate(seed, progen.Config{})
		for _, optimize := range []bool{false, true} {
			prog, err := minijava.Compile(src)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			name := fmt.Sprintf("progen-%d", seed)
			if optimize {
				if _, err := opt.Program(prog); err != nil {
					t.Fatalf("seed %d: optimizer: %v", seed, err)
				}
				name += "-opt"
			}
			pcfg, err := cfg.BuildProgram(prog)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			subjects = append(subjects, subject{name, prog, pcfg})
		}
	}

	legs := []struct {
		name string
		mode core.Mode
		conf core.Config
	}{
		{"plain", core.ModePlain, core.Config{}},
		{"unfused", core.ModeTrace, core.Config{}},
		{"fused", core.ModeTrace, core.Config{CompileTraces: true, TierUpDispatches: 1}},
	}
	var fusedDispatches int64
	for _, sub := range subjects {
		for _, leg := range legs {
			var checks int64
			var violation string
			s, err := core.NewSession(sub.prog, sub.pcfg, core.SessionOptions{
				Mode: leg.mode, Config: leg.conf, Out: io.Discard, MaxSteps: 2_000_000,
				Probe: func(b *cfg.Block, _, stack []vm.Value) {
					checks++
					if len(stack) > b.Method.MaxStack && violation == "" {
						violation = fmt.Sprintf("%s holds %d operands at entry, MaxStack %d", b, len(stack), b.Method.MaxStack)
					}
				},
			})
			if err != nil {
				t.Fatalf("%s/%s: %v", sub.name, leg.name, err)
			}
			if err := s.Run(); err != nil {
				if tr, ok := vm.AsTrap(err); !ok || tr.Kind != vm.TrapStepLimit {
					t.Fatalf("%s/%s: %v", sub.name, leg.name, err)
				}
			}
			if checks == 0 {
				t.Fatalf("%s/%s: the probe saw no block entry", sub.name, leg.name)
			}
			if violation != "" {
				t.Errorf("%s/%s: %s", sub.name, leg.name, violation)
			}
			fusedDispatches += s.Counters.CompiledDispatches
		}
	}
	if fusedDispatches == 0 {
		t.Error("no fused program was dispatched; the fused leg is vacuous")
	}
}
