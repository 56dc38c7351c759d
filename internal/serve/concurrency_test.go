package serve

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/replay"
	"repro/internal/stats"
	"repro/internal/workload"
)

// serialRun executes one workload in a fresh single-threaded session — the
// ground truth the concurrent service must reproduce bit-for-bit.
func serialRun(t *testing.T, name string, mode core.Mode) (string, stats.Counters) {
	t.Helper()
	w, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	prog, pcfg, err := w.Compile()
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	// The service attaches the registration-time static hints to every run;
	// the serial ground truth must match its configuration exactly.
	sess, err := core.NewSession(prog, pcfg, core.SessionOptions{
		Mode: mode, Out: &out, Hints: analysis.ComputeHints(pcfg),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Run(); err != nil {
		t.Fatal(err)
	}
	return out.String(), sess.Counters.Snapshot()
}

// TestConcurrentIsolation runs every workload in parallel sessions (two
// requests each, twelve in flight across six programs sharing registry
// entries and per-worker profiler shards) and asserts each run's output and
// dispatch-invariant counters (instructions, block dispatches, method calls)
// are identical to a serial run, and that the service's aggregated counters
// equal the exact sum of the per-request counters, globally and per program.
// Learned state legitimately carries across runs through the shards, so the
// counters it shapes (traces built, nodes created) are not compared. Under
// -race this also proves mechanically that sessions share no mutable state
// outside the coordinator's locks.
func TestConcurrentIsolation(t *testing.T) {
	const perWorkload = 2
	names := workload.Names()

	type truth struct {
		output string
		ctr    stats.Counters
	}
	want := make(map[string]truth, len(names))
	for _, name := range names {
		out, ctr := serialRun(t, name, core.ModeTrace)
		want[name] = truth{output: out, ctr: ctr}
	}

	s := newTestService(t, Config{Workers: 4, QueueDepth: len(names) * perWorkload})
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		wantAgg stats.Counters
		perProg = make(map[string]*stats.Counters, len(names))
	)
	for _, name := range names {
		perProg[name] = &stats.Counters{}
		for i := 0; i < perWorkload; i++ {
			wg.Add(1)
			go func(name string) {
				defer wg.Done()
				resp, err := s.Do(context.Background(), Request{Workload: name, Mode: core.ModeTrace})
				if err != nil {
					t.Errorf("%s: %v", name, err)
					return
				}
				w := want[name]
				if resp.Output != w.output {
					t.Errorf("%s: concurrent output diverged from serial run:\ngot:  %q\nwant: %q", name, resp.Output, w.output)
				}
				got := [3]int64{resp.Counters.Instrs, resp.Counters.BlockDispatches, resp.Counters.MethodCalls}
				if serial := [3]int64{w.ctr.Instrs, w.ctr.BlockDispatches, w.ctr.MethodCalls}; got != serial {
					t.Errorf("%s: concurrent instrs/block dispatches/method calls %v diverged from serial run %v", name, got, serial)
				}
				mu.Lock()
				wantAgg.Add(&resp.Counters)
				perProg[name].Add(&resp.Counters)
				mu.Unlock()
			}(name)
		}
	}
	wg.Wait()

	snap := s.Stats()
	if snap.Global != wantAgg {
		t.Errorf("aggregated counters != sum of per-request counters:\ngot:  %+v\nwant: %+v", snap.Global, wantAgg)
	}
	if snap.Completed != int64(len(names)*perWorkload) {
		t.Errorf("completed = %d, want %d", snap.Completed, len(names)*perWorkload)
	}
	for _, name := range names {
		ps := snap.PerProgram[name]
		if ps.Runs != perWorkload {
			t.Errorf("%s: runs = %d, want %d", name, ps.Runs, perWorkload)
			continue
		}
		if ps.Counters != *perProg[name] {
			t.Errorf("%s: per-program aggregate mismatch:\ngot:  %+v\nwant: %+v", name, ps.Counters, *perProg[name])
		}
	}
}

// TestParallelThroughput demonstrates multi-core scaling: the same request
// mix through a 4-worker pool must finish materially faster than through a
// 1-worker pool. Skipped on small machines where there is nothing to scale
// onto, and under -short.
func TestParallelThroughput(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping throughput measurement in -short mode")
	}
	if runtime.NumCPU() < 4 {
		t.Skipf("need >= 4 CPUs to demonstrate scaling, have %d", runtime.NumCPU())
	}
	workloads := []string{"soot", "raytrace", "javac"}
	mix := workloadLog(12, core.ModeTrace, workloads...)
	measure := func(workers int) replay.PlayResult {
		s := New(Config{Workers: workers, QueueDepth: len(mix.Records)})
		defer s.Close()
		// Pre-warm the registry so compilation is excluded from both sides.
		for _, w := range workloads {
			if _, err := s.Registry().Workload(w); err != nil {
				t.Fatal(err)
			}
		}
		res, err := s.Replay(context.Background(), mix, replay.PlayOptions{MaxInFlight: 4})
		if err != nil {
			t.Fatal(err)
		}
		if res.Completed != int64(len(mix.Records)) {
			t.Fatalf("%d workers: completed %d/%d, errs=%v", workers, res.Completed, len(mix.Records), res.Errors)
		}
		return res
	}
	serial := measure(1)
	parallel := measure(4)
	speedup := serial.Wall.Seconds() / parallel.Wall.Seconds()
	t.Logf("serial(1 worker) %v, parallel(4 workers) %v, speedup %.2fx", serial.Wall, parallel.Wall, speedup)
	if speedup < 1.5 {
		t.Errorf("4-worker speedup %.2fx < 1.5x; sessions are not executing concurrently", speedup)
	}
}

// TestRegistrySharding exercises all shards concurrently: many distinct
// ad-hoc programs compiled and run at once, each exactly once.
func TestRegistrySharding(t *testing.T) {
	s := newTestService(t, Config{Workers: 4, QueueDepth: 64})
	const n = 32
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			src := fmt.Sprintf(`class Main { static void main() { Sys.printlnInt(%d); } }`, i)
			resp, err := s.Do(context.Background(), Request{Source: src})
			if err != nil {
				t.Errorf("program %d: %v", i, err)
				return
			}
			if want := fmt.Sprintf("%d\n", i); resp.Output != want {
				t.Errorf("program %d printed %q", i, resp.Output)
			}
		}(i)
	}
	wg.Wait()
	if snap := s.Stats(); snap.Programs != n {
		t.Errorf("registry holds %d programs, want %d", snap.Programs, n)
	}
}
