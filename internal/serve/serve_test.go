package serve

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/replay"
)

const tinySource = `class Main { static void main() { Sys.printlnInt(7); } }`

// spinSource loops forever; only an interrupt or step budget stops it.
const spinSource = `class Main { static void main() { int i = 0; while (0 < 1) { i = i + 1; } Sys.printlnInt(i); } }`

func newTestService(t *testing.T, cfg Config) *Service {
	t.Helper()
	s := New(cfg)
	t.Cleanup(s.Close)
	return s
}

func TestDoSource(t *testing.T) {
	s := newTestService(t, Config{Workers: 2})
	resp, err := s.Do(context.Background(), Request{Source: tinySource, Mode: core.ModeTrace})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Output != "7\n" {
		t.Errorf("output = %q, want %q", resp.Output, "7\n")
	}
	if resp.Counters.Instrs == 0 {
		t.Error("no instructions counted")
	}
	if !strings.HasPrefix(resp.Program, "minijava:") {
		t.Errorf("program label = %q", resp.Program)
	}
	snap := s.Stats()
	if snap.Accepted != 1 || snap.Completed != 1 {
		t.Errorf("accounting: accepted=%d completed=%d", snap.Accepted, snap.Completed)
	}
	if snap.Global.Instrs != resp.Counters.Instrs {
		t.Errorf("global instrs %d != response instrs %d", snap.Global.Instrs, resp.Counters.Instrs)
	}
}

func TestRegistryCompilesOnce(t *testing.T) {
	s := newTestService(t, Config{Workers: 4})
	const n = 16
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func() {
			defer wg.Done()
			if _, err := s.Do(context.Background(), Request{Workload: "soot", Mode: core.ModePlain}); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	snap := s.Stats()
	if snap.Programs != 1 {
		t.Errorf("registry holds %d programs, want 1", snap.Programs)
	}
	if snap.RegistryMisses != 1 || snap.RegistryHits != n-1 {
		t.Errorf("hits=%d misses=%d, want %d/1", snap.RegistryHits, snap.RegistryMisses, n-1)
	}
	if ps := snap.PerProgram["soot"]; ps.Runs != n {
		t.Errorf("soot runs = %d, want %d", ps.Runs, n)
	}
}

func TestCompileErrorNotEnqueued(t *testing.T) {
	s := newTestService(t, Config{Workers: 1})
	_, err := s.Do(context.Background(), Request{Source: "class {"})
	if err == nil {
		t.Fatal("bad program accepted")
	}
	// The error is cached: same source, same error, still no run.
	_, err2 := s.Do(context.Background(), Request{Source: "class {"})
	if err2 == nil || err2.Error() != err.Error() {
		t.Errorf("cached compile error mismatch: %v vs %v", err, err2)
	}
	snap := s.Stats()
	if snap.CompileErrors != 2 || snap.Accepted != 0 {
		t.Errorf("compileErrors=%d accepted=%d", snap.CompileErrors, snap.Accepted)
	}
}

func TestRequestValidation(t *testing.T) {
	s := newTestService(t, Config{Workers: 1})
	if _, err := s.Do(context.Background(), Request{}); err == nil {
		t.Error("empty request accepted")
	}
	if _, err := s.Do(context.Background(), Request{Workload: "compress", Source: tinySource}); err == nil {
		t.Error("ambiguous request accepted")
	}
	if _, err := s.Do(context.Background(), Request{Workload: "nope"}); err == nil {
		t.Error("unknown workload accepted")
	}
}

func TestBackpressure(t *testing.T) {
	block := make(chan struct{})
	started := make(chan struct{}, 16)
	s := newTestService(t, Config{Workers: 1, QueueDepth: 1, Injector: InjectorFuncs{
		Exec: func(Request) {
			started <- struct{}{}
			<-block
		},
	}})

	// First request occupies the worker, second fills the queue.
	results := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() {
			_, err := s.Do(context.Background(), Request{Source: tinySource})
			results <- err
		}()
	}
	<-started // the worker is now blocked inside request 1

	// Wait for the second request to occupy the single queue slot.
	deadline := time.After(5 * time.Second)
	for len(s.jobs) == 0 {
		select {
		case <-deadline:
			t.Fatal("queue never filled")
		case <-time.After(time.Millisecond):
		}
	}

	// The third must be rejected immediately.
	if _, err := s.Do(context.Background(), Request{Source: tinySource}); !errors.Is(err, ErrQueueFull) {
		t.Errorf("overload error = %v, want ErrQueueFull", err)
	}
	close(block)
	for i := 0; i < 2; i++ {
		if err := <-results; err != nil {
			t.Errorf("queued request failed: %v", err)
		}
	}
	snap := s.Stats()
	if snap.Rejected != 1 {
		t.Errorf("rejected = %d, want 1", snap.Rejected)
	}
}

func TestTimeoutInterruptsRunningSession(t *testing.T) {
	s := newTestService(t, Config{Workers: 1})
	start := time.Now()
	_, err := s.Do(context.Background(), Request{Source: spinSource, Timeout: 50 * time.Millisecond})
	if err == nil {
		t.Fatal("runaway program returned without error")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("error = %v, want deadline exceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("cancellation took %v; interrupt did not reach the session", elapsed)
	}
	// The worker must be free again: a normal request still runs.
	if _, err := s.Do(context.Background(), Request{Source: tinySource}); err != nil {
		t.Errorf("service wedged after timeout: %v", err)
	}
	snap := s.Stats()
	if snap.TimedOut != 1 {
		t.Errorf("timedOut = %d, want 1", snap.TimedOut)
	}
}

func TestTimeoutWhileQueued(t *testing.T) {
	block := make(chan struct{})
	started := make(chan struct{}, 1)
	hooked := false
	var mu sync.Mutex
	s := newTestService(t, Config{Workers: 1, QueueDepth: 4, Injector: InjectorFuncs{
		Exec: func(Request) {
			mu.Lock()
			first := !hooked
			hooked = true
			mu.Unlock()
			if first {
				started <- struct{}{}
				<-block
			}
		},
	}})
	go s.Do(context.Background(), Request{Source: tinySource}) //nolint:errcheck
	<-started

	// This one sits in the queue until its context expires.
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, err := s.Do(ctx, Request{Source: tinySource})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("queued timeout error = %v", err)
	}
	close(block)
}

func TestPanicRecovery(t *testing.T) {
	s := newTestService(t, Config{Workers: 2, Injector: InjectorFuncs{
		Exec: func(req Request) {
			if req.Workload == "compress" {
				panic("injected fault")
			}
		},
	}})
	_, err := s.Do(context.Background(), Request{Workload: "compress"})
	if err == nil || !strings.Contains(err.Error(), "injected fault") {
		t.Fatalf("panic not surfaced as error: %v", err)
	}
	// The pool survives: other requests keep working on every worker.
	for i := 0; i < 4; i++ {
		if _, err := s.Do(context.Background(), Request{Source: tinySource}); err != nil {
			t.Fatalf("service dead after panic: %v", err)
		}
	}
	snap := s.Stats()
	if snap.Panics != 1 || snap.Failed != 1 {
		t.Errorf("panics=%d failed=%d, want 1/1", snap.Panics, snap.Failed)
	}
}

func TestQuarantine(t *testing.T) {
	s := newTestService(t, Config{Workers: 1, QuarantineAfter: 2, Injector: InjectorFuncs{
		Exec: func(req Request) {
			if req.Workload == "compress" {
				panic("chaos")
			}
		},
	}})
	for i := 0; i < 2; i++ {
		_, err := s.Do(context.Background(), Request{Workload: "compress"})
		if err == nil || errors.Is(err, ErrQuarantined) {
			t.Fatalf("run %d: err = %v, want a panic error before the threshold", i, err)
		}
	}
	// Third submission: the panic count has hit the threshold, so the
	// request is rejected before it can take down another worker.
	_, err := s.Do(context.Background(), Request{Workload: "compress"})
	if !errors.Is(err, ErrQuarantined) {
		t.Fatalf("past threshold: err = %v, want ErrQuarantined", err)
	}
	// Other programs are unaffected.
	if _, err := s.Do(context.Background(), Request{Source: tinySource}); err != nil {
		t.Fatalf("healthy program rejected: %v", err)
	}
	snap := s.Stats()
	if snap.Quarantined != 1 || snap.QuarantinedPrograms != 1 || snap.Panics != 2 {
		t.Errorf("quarantined=%d programs=%d panics=%d, want 1/1/2",
			snap.Quarantined, snap.QuarantinedPrograms, snap.Panics)
	}
}

func TestQuarantineDisabled(t *testing.T) {
	s := newTestService(t, Config{Workers: 1, QuarantineAfter: -1, Injector: InjectorFuncs{
		Exec: func(Request) { panic("chaos") },
	}})
	for i := 0; i < 5; i++ {
		if _, err := s.Do(context.Background(), Request{Source: tinySource}); errors.Is(err, ErrQuarantined) {
			t.Fatal("quarantine engaged while disabled")
		}
	}
	if snap := s.Stats(); snap.QuarantinedPrograms != 0 {
		t.Errorf("quarantinedPrograms = %d, want 0", snap.QuarantinedPrograms)
	}
}

func TestLoadGenRetriesBackpressure(t *testing.T) {
	// A runner that rejects the first few calls forces the backoff path;
	// with retries enabled none of the requests may fail.
	var calls atomic.Int64
	s := newTestService(t, Config{Workers: 2})
	run := Runner(func(ctx context.Context, req Request) (*Response, error) {
		if calls.Add(1) <= 3 {
			return nil, ErrQueueFull
		}
		return s.Do(ctx, req)
	})
	var retries atomic.Int64
	res, err := replay.Play(context.Background(), workloadLog(6, core.ModePlain, "soot"),
		replay.PlayOptions{MaxInFlight: 2},
		func(ctx context.Context, rec replay.Record) error {
			b := Backoff{Base: time.Microsecond, Max: 10 * time.Microsecond, Seed: 1}
			_, r, err := b.Retry(ctx, run, RequestFromRecord(rec))
			retries.Add(int64(r))
			return err
		})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 {
		t.Fatalf("failures despite retry: %+v", res)
	}
	if retries.Load() == 0 {
		t.Error("no retries recorded")
	}
}

func TestRunErrorCounted(t *testing.T) {
	s := newTestService(t, Config{Workers: 1})
	_, err := s.Do(context.Background(), Request{Source: spinSource, MaxSteps: 1000})
	if err == nil {
		t.Fatal("step-limited run succeeded")
	}
	if snap := s.Stats(); snap.Failed != 1 {
		t.Errorf("failed = %d, want 1", snap.Failed)
	}
}

func TestServiceMaxStepsClamp(t *testing.T) {
	s := newTestService(t, Config{Workers: 1, MaxSteps: 1000})
	// Unbounded request: clamped to the service cap, so the spin must trap.
	if _, err := s.Do(context.Background(), Request{Source: spinSource}); err == nil {
		t.Error("service step cap not applied to unbounded request")
	}
	// Oversized request budget: also clamped.
	if _, err := s.Do(context.Background(), Request{Source: spinSource, MaxSteps: 1 << 40}); err == nil {
		t.Error("service step cap not applied to oversized request")
	}
}

func TestCloseDrains(t *testing.T) {
	s := New(Config{Workers: 2, QueueDepth: 8})
	var wg sync.WaitGroup
	errs := make(chan error, 6)
	wg.Add(6)
	for i := 0; i < 6; i++ {
		go func() {
			defer wg.Done()
			_, err := s.Do(context.Background(), Request{Source: tinySource, Mode: core.ModeTrace})
			errs <- err
		}()
	}
	wg.Wait() // all six finished before Close: simplest drain case
	s.Close()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Errorf("pre-close request failed: %v", err)
		}
	}
	if _, err := s.Do(context.Background(), Request{Source: tinySource}); !errors.Is(err, ErrClosed) {
		t.Errorf("post-close error = %v, want ErrClosed", err)
	}
	s.Close() // idempotent
}

func TestLatencyHistogram(t *testing.T) {
	s := newTestService(t, Config{Workers: 1})
	for i := 0; i < 3; i++ {
		if _, err := s.Do(context.Background(), Request{Source: tinySource}); err != nil {
			t.Fatal(err)
		}
	}
	snap := s.Stats()
	var total int64
	for _, b := range snap.Latency {
		total += b.Count
	}
	if total != 3 {
		t.Errorf("histogram holds %d observations, want 3", total)
	}
	if snap.Latency[len(snap.Latency)-1].UpperMs != 0 {
		t.Error("last bucket should be unbounded (UpperMs 0)")
	}
}

func TestSourceKindJasm(t *testing.T) {
	s := newTestService(t, Config{Workers: 1})
	const jasmSrc = `
.class Main
.method static main ( ) void
    return
.end
.end
.entry Main main
`
	resp, err := s.Do(context.Background(), Request{Source: jasmSrc, Kind: KindJasm})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(resp.Program, "jasm:") {
		t.Errorf("program label = %q", resp.Program)
	}
}

// workloadLog builds the closed-loop traffic the tests offer: n requests
// cycling through names, all in one mode, with no arrival gaps.
func workloadLog(n int, mode core.Mode, names ...string) *replay.Log {
	l := &replay.Log{}
	for i := 0; i < n; i++ {
		l.Records = append(l.Records, replay.Record{
			Kind: replay.RefWorkload, Workload: names[i%len(names)], Mode: mode,
		})
	}
	return l
}

func TestLoadGen(t *testing.T) {
	s := newTestService(t, Config{Workers: 2, QueueDepth: 32})
	res, err := s.Replay(context.Background(), workloadLog(8, core.ModePlain, "soot", "raytrace"),
		replay.PlayOptions{MaxInFlight: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 8 || res.Failed != 0 {
		t.Fatalf("replay: completed=%d failed=%d errs=%v", res.Completed, res.Failed, res.Errors)
	}
	if res.Wall <= 0 || s.Stats().Global.Instrs == 0 {
		t.Errorf("degenerate result: %+v", res)
	}
}

func TestModeStringsRoundTrip(t *testing.T) {
	// The HTTP layer depends on Mode.String values; pin them.
	want := map[core.Mode]string{
		core.ModePlain: "plain", core.ModeInstr: "instr", core.ModeProfile: "profile",
		core.ModeTrace: "trace", core.ModeTraceDeploy: "trace-deploy",
	}
	for m, s := range want {
		if m.String() != s {
			t.Errorf("Mode(%d).String() = %q, want %q", m, m.String(), s)
		}
	}
	if fmt.Sprint(KindMiniJava, KindJasm) != "minijava jasm" {
		t.Errorf("SourceKind strings changed: %v %v", KindMiniJava, KindJasm)
	}
}

// uninitSource reads a local no path ever wrote: the VM's zero-initialized
// frames run it happily, but the verifier must refuse it — the pair proves
// the gate is the verifier, not the interpreter.
const uninitSource = `
.class Main
.method static main ( ) void
    .locals 1
    iload 0
    invokestatic Main.print
    return
.end
.native static print ( int ) void println_int
.end
.entry Main main
`

func TestDoRejectsUnverifiableSource(t *testing.T) {
	s := newTestService(t, Config{Workers: 1})
	_, err := s.Do(context.Background(), Request{Source: uninitSource, Kind: KindJasm})
	if err == nil {
		t.Fatal("unverifiable program accepted")
	}
	var verr *analysis.VerifyError
	if !errors.As(err, &verr) {
		t.Fatalf("error is not a *analysis.VerifyError: %v", err)
	}
	if got := verr.Report.Errors()[0].Rule; got != analysis.RuleUninitLocal {
		t.Fatalf("rule = %s, want %s", got, analysis.RuleUninitLocal)
	}

	// The rejection is cached like a compile error: resubmitting hits the
	// registry and is refused again without recompiling.
	if _, err2 := s.Do(context.Background(), Request{Source: uninitSource, Kind: KindJasm}); err2 == nil {
		t.Fatal("resubmitted unverifiable program accepted")
	}
	snap := s.Stats()
	if snap.ProgramsRejected != 2 {
		t.Errorf("ProgramsRejected = %d, want 2", snap.ProgramsRejected)
	}
	if snap.CompileErrors != 0 {
		t.Errorf("CompileErrors = %d, want 0 (verification rejections are counted separately)", snap.CompileErrors)
	}
	if snap.Programs != 1 {
		t.Errorf("registry holds %d entries, want 1 (cached rejection)", snap.Programs)
	}
}

func TestNoVerifySkipsTheGate(t *testing.T) {
	s := newTestService(t, Config{Workers: 1, NoVerify: true})
	resp, err := s.Do(context.Background(), Request{Source: uninitSource, Kind: KindJasm})
	if err != nil {
		t.Fatalf("NoVerify service refused the program: %v", err)
	}
	if resp.Output != "0\n" {
		t.Errorf("output = %q, want %q (zero-initialized local)", resp.Output, "0\n")
	}
	if snap := s.Stats(); snap.ProgramsRejected != 0 {
		t.Errorf("ProgramsRejected = %d, want 0", snap.ProgramsRejected)
	}
}

func TestCompileErrorNotCountedAsRejected(t *testing.T) {
	s := newTestService(t, Config{Workers: 1})
	if _, err := s.Do(context.Background(), Request{Source: "class {", Kind: KindMiniJava}); err == nil {
		t.Fatal("syntactically invalid program accepted")
	}
	snap := s.Stats()
	if snap.CompileErrors != 1 || snap.ProgramsRejected != 0 {
		t.Errorf("CompileErrors=%d ProgramsRejected=%d, want 1/0", snap.CompileErrors, snap.ProgramsRejected)
	}
}
