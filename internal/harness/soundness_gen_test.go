package harness

import (
	"fmt"
	"testing"

	"repro/internal/analysis/valueflow"
	"repro/internal/cfg"
	"repro/internal/minijava"
	"repro/internal/progen"
)

// TestValueFlowSoundnessGenerated runs the differential check over the
// value-flow golden's cold band: the first 200 progen programs, walking
// seeds upward from 1, whose source is 6 000–8 500 bytes. Every claim must
// hold on every executed block entry, and no program may degrade to the
// claim-free table, which would make its check vacuous.
func TestValueFlowSoundnessGenerated(t *testing.T) {
	const (
		programs = 200
		srcLo    = 6000
		srcHi    = 8500
		maxSteps = 2_000_000
	)
	var checks int64
	n := 0
	for seed := int64(1); n < programs; seed++ {
		src := progen.Generate(seed, progen.Config{})
		if len(src) < srcLo || len(src) > srcHi {
			continue
		}
		n++
		name := fmt.Sprintf("progen-%d", seed)
		prog, err := minijava.Compile(src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		p, err := cfg.BuildProgram(prog)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		c := &compiled{prog: prog, cfg: p, facts: valueflow.Compute(p)}
		if c.facts.Top() {
			t.Errorf("%s: analysis degraded to top facts", name)
			continue
		}
		res, err := checkSoundness(name, c, maxSteps)
		if err != nil {
			t.Fatal(err)
		}
		checks += res.Checks
		for _, v := range res.Violations {
			t.Errorf("%s: %s", name, v)
		}
	}
	if checks == 0 {
		t.Fatal("checker compared zero block entries across the generated programs")
	}
	t.Logf("%d programs, %d checked entries", n, checks)
}
