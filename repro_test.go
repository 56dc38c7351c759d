package repro_test

import (
	"bytes"
	"strings"
	"testing"

	"repro"
)

const fib = `
class Main {
    static int fib(int n) {
        if (n < 2) { return n; }
        return fib(n - 1) + fib(n - 2);
    }
    static void main() { Sys.printlnInt(fib(18)); }
}`

func TestFacadeCompileAndRun(t *testing.T) {
	prog, err := repro.CompileMiniJava(fib)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	vm, err := repro.NewVM(prog, repro.WithOutput(&out))
	if err != nil {
		t.Fatal(err)
	}
	if err := vm.Run(); err != nil {
		t.Fatal(err)
	}
	if out.String() != "2584\n" {
		t.Errorf("fib(18) = %q", out.String())
	}
	if err := vm.Verify(); err != nil {
		t.Errorf("verify: %v", err)
	}
	if vm.Counters().Instrs == 0 {
		t.Error("no instructions counted")
	}
	if len(vm.Traces()) == 0 {
		t.Error("no traces cached in default trace mode")
	}
	if vm.NumBCGNodes() == 0 {
		t.Error("no BCG nodes")
	}
	if !strings.HasPrefix(vm.DumpBCG(1), "digraph") {
		t.Error("DumpBCG not DOT")
	}
}

// TestFacadeOptions exercises the composed option surface: WithParams is
// the single way to tune the profiler (the per-field wrappers are gone).
func TestFacadeOptions(t *testing.T) {
	prog, err := repro.CompileMiniJava(fib)
	if err != nil {
		t.Fatal(err)
	}
	vm, err := repro.NewVM(prog,
		repro.WithMode(repro.ModePlain),
		repro.WithParams(repro.Params{Threshold: 0.95, StartDelay: 1, DecayInterval: 128}),
		repro.WithMaxSteps(100_000_000),
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := vm.Run(); err != nil {
		t.Fatal(err)
	}
	if vm.Traces() != nil {
		t.Error("plain mode has traces")
	}
	if vm.DumpBCG(0) != "" || vm.NumBCGNodes() != 0 {
		t.Error("plain mode has a BCG")
	}
}

func TestFacadeAssembler(t *testing.T) {
	prog, err := repro.Assemble(`
.class M
.native static p ( int ) void println_int
.method static main ( ) void
    iconst 11 invokestatic M.p
    return
.end
.end
.entry M main
`)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	vm, err := repro.NewVM(prog, repro.WithMode(repro.ModePlain), repro.WithOutput(&out))
	if err != nil {
		t.Fatal(err)
	}
	if err := vm.Run(); err != nil {
		t.Fatal(err)
	}
	if out.String() != "11\n" {
		t.Errorf("output = %q", out.String())
	}
}

func TestFacadeModuleRoundTrip(t *testing.T) {
	prog, err := repro.CompileMiniJava(fib)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := repro.SaveModule(&buf, prog); err != nil {
		t.Fatal(err)
	}
	loaded, err := repro.LoadModule(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	vm, err := repro.NewVM(loaded, repro.WithMode(repro.ModePlain), repro.WithOutput(&out))
	if err != nil {
		t.Fatal(err)
	}
	if err := vm.Run(); err != nil {
		t.Fatal(err)
	}
	if out.String() != "2584\n" {
		t.Errorf("round-tripped module output = %q", out.String())
	}
}

func TestFacadeWorkloads(t *testing.T) {
	names := repro.WorkloadNames()
	if len(names) != 6 {
		t.Fatalf("workloads = %v", names)
	}
	src, err := repro.WorkloadSource("scimark")
	if err != nil || !strings.Contains(src, "class Main") {
		t.Errorf("WorkloadSource: %v", err)
	}
	if _, err := repro.WorkloadSource("nope"); err == nil {
		t.Error("unknown workload accepted")
	}
}

func TestFacadeMetricsConsistency(t *testing.T) {
	prog, err := repro.CompileMiniJava(fib)
	if err != nil {
		t.Fatal(err)
	}
	vm, err := repro.NewVM(prog)
	if err != nil {
		t.Fatal(err)
	}
	if err := vm.Run(); err != nil {
		t.Fatal(err)
	}
	m := vm.Metrics()
	if m.Coverage < 0 || m.Coverage > 1 || m.CacheCoverage < m.Coverage {
		t.Errorf("coverage out of range: %+v", m)
	}
	if m.CompletionRate < 0 || m.CompletionRate > 1 {
		t.Errorf("completion out of range: %+v", m)
	}
	for _, tr := range vm.Traces() {
		if tr.Completed > tr.Entered {
			t.Errorf("trace %d completed more than entered", tr.ID)
		}
		if tr.Blocks < 2 {
			t.Errorf("trace %d shorter than 2 blocks", tr.ID)
		}
	}
}

func TestParamsDefaultsAndOverrideOrder(t *testing.T) {
	def := repro.DefaultParams()
	if def.Threshold != 0.97 || def.StartDelay != 64 || def.DecayInterval != 256 {
		t.Fatalf("DefaultParams = %+v", def)
	}
	if def.MaxTraces != 0 || def.MaxCachedBlocks != 0 {
		t.Fatalf("DefaultParams budgets not zero: %+v", def)
	}
	if got := repro.ResolvedParams(); got != def {
		t.Errorf("no options: resolved %+v, want defaults %+v", got, def)
	}

	// A partial literal overrides only the fields it names.
	got := repro.ResolvedParams(repro.WithParams(repro.Params{Threshold: 0.9}))
	if got.Threshold != 0.9 || got.StartDelay != 64 || got.DecayInterval != 256 {
		t.Errorf("partial WithParams: %+v", got)
	}

	// Later options win for the fields they set, field-wise.
	got = repro.ResolvedParams(
		repro.WithParams(repro.Params{Threshold: 0.5, MaxTraces: 7}),
		repro.WithParams(repro.Params{Threshold: 0.9}),
	)
	if got.Threshold != 0.9 || got.MaxTraces != 7 {
		t.Errorf("override order: %+v", got)
	}
}

func TestParamsServiceConfig(t *testing.T) {
	p := repro.Params{
		MaxTraces:       5,
		MaxCachedBlocks: 100,
	}
	cfg := p.ServiceConfig()
	if cfg.TraceCache.MaxTraces != 5 || cfg.TraceCache.MaxCachedBlocks != 100 {
		t.Errorf("budgets not mapped: %+v", cfg.TraceCache)
	}
}

func TestParamsCacheBudgetApplies(t *testing.T) {
	prog, err := repro.CompileMiniJava(fib)
	if err != nil {
		t.Fatal(err)
	}
	vm, err := repro.NewVM(prog, repro.WithParams(repro.Params{MaxTraces: 1}))
	if err != nil {
		t.Fatal(err)
	}
	if err := vm.Run(); err != nil {
		t.Fatal(err)
	}
	if n := len(vm.Traces()); n > 1 {
		t.Errorf("MaxTraces=1 budget ignored: %d live traces", n)
	}
	if vm.Counters().TracesBuilt == 0 {
		t.Error("budgeted run built no traces")
	}
}

func TestFacadeEventTrace(t *testing.T) {
	prog, err := repro.CompileMiniJava(fib)
	if err != nil {
		t.Fatal(err)
	}
	vm, err := repro.NewVM(prog, repro.WithEventTrace(128))
	if err != nil {
		t.Fatal(err)
	}
	if err := vm.Run(); err != nil {
		t.Fatal(err)
	}
	evs := vm.Events(128)
	if len(evs) == 0 {
		t.Fatal("traced run emitted no events")
	}
	var sawState, sawBuilt bool
	for i, e := range evs {
		if i > 0 && e.Seq <= evs[i-1].Seq {
			t.Fatalf("events out of order at %d", i)
		}
		switch e.Type {
		case repro.EvNodeState:
			sawState = true
		case repro.EvTraceBuilt:
			sawBuilt = true
		}
	}
	if !sawState || !sawBuilt {
		t.Errorf("missing event kinds: nodeState=%v traceBuilt=%v", sawState, sawBuilt)
	}
	if ring := vm.EventRing(); ring == nil || ring.Total() == 0 {
		t.Error("EventRing not exposed")
	}
	if _, ok := repro.ParseEventType("trace-built"); !ok {
		t.Error("ParseEventType(trace-built) failed")
	}

	// Without the option there is no ring and Events is nil.
	plain, err := repro.NewVM(prog)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Events(10) != nil || plain.EventRing() != nil {
		t.Error("ring present without WithEventTrace")
	}
}
