package valueflow_test

import (
	"bufio"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/analysis/valueflow"
	"repro/internal/cfg"
	"repro/internal/jasm"
	"repro/internal/minijava"
	"repro/internal/progen"
	"repro/internal/workload"
)

const goldenPath = "testdata/facts.golden"

// The cold band matches the source-size band of the cold-tenants benchmark
// workload: generated programs of 6–8.5 KB, walked upward from a fixed
// progen seed.
const (
	coldBandSeedBase = 1
	coldBandPrograms = 200
	coldBandSrcLo    = 6000
	coldBandSrcHi    = 8500
)

type namedCFG struct {
	name string
	p    *cfg.ProgramCFG
}

var (
	coldBandOnce sync.Once
	coldBandList []namedCFG
	coldBandErr  error
)

// coldBand compiles the first coldBandPrograms in-band progen programs,
// once per test binary.
func coldBand(tb testing.TB) []namedCFG {
	tb.Helper()
	coldBandOnce.Do(func() { coldBandList, coldBandErr = compileColdBand() })
	if coldBandErr != nil {
		tb.Fatal(coldBandErr)
	}
	return coldBandList
}

func compileColdBand() ([]namedCFG, error) {
	var out []namedCFG
	for seed := int64(coldBandSeedBase); len(out) < coldBandPrograms; seed++ {
		src := progen.Generate(seed, progen.Config{})
		if len(src) < coldBandSrcLo || len(src) > coldBandSrcHi {
			continue
		}
		prog, err := minijava.Compile(src)
		if err != nil {
			return nil, fmt.Errorf("progen seed %d: %v", seed, err)
		}
		p, err := cfg.BuildProgram(prog)
		if err != nil {
			return nil, fmt.Errorf("progen seed %d: %v", seed, err)
		}
		out = append(out, namedCFG{fmt.Sprintf("progen-%d", seed), p})
	}
	return out, nil
}

// builtins compiles the six built-in workloads.
func builtins(t *testing.T) []namedCFG {
	t.Helper()
	var out []namedCFG
	for _, w := range workload.All() {
		_, p, err := w.Compile()
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, namedCFG{"workload-" + w.Name, p})
	}
	return out
}

// goldenCorpus is every program the golden file covers: the six built-in
// workloads, the adversarial corpus (less the programs Link refuses) and
// the cold band.
func goldenCorpus(t *testing.T) []namedCFG {
	t.Helper()
	out := builtins(t)
	paths, err := filepath.Glob(filepath.Join("testdata", "adversarial", "*.jasm"))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		src := string(data)
		prog, err := jasm.Assemble(src)
		if rule, ok := strings.CutPrefix(corpusExpect(t, path, src), "rejected "); ok {
			checkRejected(t, path, err, rule)
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		p, err := cfg.BuildProgram(prog)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		out = append(out, namedCFG{"adversarial-" + filepath.Base(path), p})
	}
	return append(out, coldBand(t)...)
}

// factsLine renders one program's table as a golden line: the name, a
// readable summary, and a digest of Stats() plus every BlockFacts in block
// order. The summary makes a silent degrade to top visible in a diff; the
// digest pins every claim.
func factsLine(name string, f *valueflow.Facts) string {
	s := f.Stats()
	h := sha256.New()
	fmt.Fprintf(h, "%+v\n", s)
	for id := 0; id < f.NumBlocks(); id++ {
		fmt.Fprintf(h, "%d %+v\n", id, *f.Block(cfg.BlockID(id)))
	}
	return fmt.Sprintf("%s top=%t blocks=%d reachable=%d decided=%d analyzed=%d/%d %x",
		name, s.Top, s.Blocks, s.Reachable, s.Decided, s.MethodsAnalyzed, s.MethodsReached, h.Sum(nil)[:12])
}

// TestComputeGolden pins every fact Compute produces on the golden corpus
// against testdata/facts.golden. The file was generated by this test from
// the instruction-granularity fixpoint that cloned a whole abstract state
// per step and re-ran every reached method once more to capture its facts.
// The file has stayed byte-identical through two reworks since: scratch
// states with arena-backed entry states, then the block walk, which stores
// and widens states only at leaders, flows each handler edge once per
// locals state and keeps each method's last visit's facts. Compute
// recovers from a panic by returning top facts, so an aliasing bug between
// a scratch state and a stored one shows up here as a changed line, not as
// a crash.
//
// To regenerate the file on purpose (a change meant to alter facts),
// delete it and run `go test -run TestComputeGolden
// ./internal/analysis/valueflow`: the test writes it from the code under
// test and fails once so the rewrite cannot pass unnoticed.
func TestComputeGolden(t *testing.T) {
	corpus := goldenCorpus(t)
	got := make([]string, len(corpus))
	for i, c := range corpus {
		got[i] = factsLine(c.name, valueflow.Compute(c.p))
	}
	data, err := os.ReadFile(goldenPath)
	if os.IsNotExist(err) {
		if err := os.WriteFile(goldenPath, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("wrote %s with %d lines; re-run to compare", goldenPath, len(got))
	}
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	sc := bufio.NewScanner(strings.NewReader(string(data)))
	for sc.Scan() {
		want = append(want, sc.Text())
	}
	if len(want) != len(got) {
		t.Fatalf("golden has %d lines, corpus has %d programs", len(want), len(got))
	}
	bad := 0
	for i := range got {
		if got[i] != want[i] {
			bad++
			if bad <= 10 {
				t.Errorf("facts changed:\n got  %s\n want %s", got[i], want[i])
			}
		}
	}
	if bad > 0 {
		t.Fatalf("%d of %d programs changed facts", bad, len(got))
	}
}

// TestComputeIgnoresMethodCode pins that Compute reads a method's code only
// through its CFG, the instructions the interpreter runs: with every
// Method.Code cleared after the CFGs are built, the built-ins and the cold
// band keep every fact. The programs are compiled afresh, since the test
// destroys their code.
func TestComputeIgnoresMethodCode(t *testing.T) {
	band, err := compileColdBand()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range append(builtins(t), band...) {
		want := factsLine(c.name, valueflow.Compute(c.p))
		for _, m := range c.p.Program.Methods {
			m.Code = nil
		}
		f := valueflow.Compute(c.p)
		if f.Top() {
			t.Errorf("%s: top facts without Method.Code", c.name)
			continue
		}
		if got := factsLine(c.name, f); got != want {
			t.Errorf("facts changed without Method.Code:\n got  %s\n want %s", got, want)
		}
	}
}

// BenchmarkCompute runs Compute over every program of the golden corpus's
// cold band; one op is one pass, so every run covers the same programs.
func BenchmarkCompute(b *testing.B) {
	band := coldBand(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range band {
			valueflow.Compute(c.p)
		}
	}
}

// TestComputeAllocs pins Compute's garbage on one cold-band program. The
// fixpoint that cloned a whole abstract state per step allocated 58 092
// objects on it; scratch states, arena-backed entry states and code
// decoded once per Compute must keep it at a tenth of that or less.
func TestComputeAllocs(t *testing.T) {
	const (
		program     = "progen-31"
		clonedAlloc = 58092
	)
	var p *cfg.ProgramCFG
	for _, c := range coldBand(t) {
		if c.name == program {
			p = c.p
		}
	}
	if p == nil {
		t.Fatalf("%s is not in the cold band", program)
	}
	if valueflow.Compute(p).Top() {
		t.Fatalf("%s degraded to top facts", program)
	}
	n := testing.AllocsPerRun(5, func() { valueflow.Compute(p) })
	t.Logf("%s: %.0f allocs per Compute (cloning fixpoint: %d)", program, n, clonedAlloc)
	if n > clonedAlloc/10 {
		t.Fatalf("Compute allocates %.0f objects on %s, want at most %d", n, program, clonedAlloc/10)
	}
}
