package harness

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"

	"repro/internal/replay"
	"repro/internal/serve"
)

// ReplayProgramCounts are the per-program counters a deterministic replay
// must reproduce exactly: how often the program ran, what its runs did, and
// how often its mode controller moved between arms.
type ReplayProgramCounts struct {
	Runs            int64           `json:"runs"`
	Instrs          int64           `json:"instrs"`
	BlockDispatches int64           `json:"block_dispatches"`
	TraceDispatches int64           `json:"trace_dispatches"`
	TracesBuilt     int64           `json:"traces_built"`
	ModeMoves       serve.ModeMoves `json:"mode_moves"`
}

// ReplayVerifyReport is the outcome of replaying one traffic log repeatedly
// against fresh services.
type ReplayVerifyReport struct {
	Records  int `json:"records"`
	Programs int `json:"programs"`
	Rounds   int `json:"rounds"`
	// Deterministic is true when every round produced identical per-program
	// counts; Divergence describes the first mismatch otherwise.
	Deterministic bool   `json:"deterministic"`
	Divergence    string `json:"divergence,omitempty"`
	// PerProgram holds round one's counts (the reference).
	PerProgram map[string]ReplayProgramCounts `json:"per_program"`
}

// VerifyReplayDeterminism replays the log `rounds` times, each against a
// fresh service, and checks that every round reproduces identical
// per-program run and dispatch counters — the property that makes a recorded
// storm a regression test. The service config is forced into its
// deterministic shape: one worker with one request in flight, the one shape
// in which the sharded profiling path is deterministic (every profiled run
// learns into the same shard in log order, and every epoch merge falls on
// the same run), and no snapshot persistence (a warm start shifts block
// dispatches into trace dispatches). The caller's Workers and QueueDepth are
// overridden; its TraceCache settings are honoured. Each program's mode
// controller counts runs, not time, so its moves must replay exactly too.
// Rounds run concurrently, up to GOMAXPROCS at a time, each on its own
// service, so the one-worker shape does not leave the other cores idle.
func VerifyReplayDeterminism(ctx context.Context, l *replay.Log, rounds int, cfg serve.Config) (*ReplayVerifyReport, error) {
	if len(l.Records) == 0 {
		return nil, fmt.Errorf("harness: empty traffic log")
	}
	if rounds < 2 {
		rounds = 2
	}
	cfg.SnapshotDir = ""
	cfg.Workers, cfg.QueueDepth = 1, 1
	opts := replay.PlayOptions{
		Scale:       0, // max speed: determinism must not depend on pacing
		MaxInFlight: 1,
	}

	counts := make([]map[string]ReplayProgramCounts, rounds)
	errs := make([]error, rounds)
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for i := range counts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			svc := serve.New(cfg)
			res, err := svc.Replay(ctx, l, opts)
			counts[i] = collectReplayCounts(svc)
			svc.Close()
			if err == nil && res.Failed > 0 {
				err = fmt.Errorf("%d requests failed (first: %v)", res.Failed, res.Errors)
			}
			errs[i] = err
		}()
	}
	wg.Wait()

	rep := &ReplayVerifyReport{
		Records:       len(l.Records),
		Programs:      len(l.Programs()),
		Rounds:        rounds,
		Deterministic: true,
		PerProgram:    counts[0],
	}
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("harness: replay round %d: %w", i+1, err)
		}
	}
	for i := 1; i < rounds; i++ {
		if diff := diffReplayCounts(counts[0], counts[i]); diff != "" {
			rep.Deterministic = false
			rep.Divergence = fmt.Sprintf("round %d vs round 1: %s", i+1, diff)
			break
		}
	}
	return rep, nil
}

func collectReplayCounts(svc *serve.Service) map[string]ReplayProgramCounts {
	out := make(map[string]ReplayProgramCounts)
	for name, ps := range svc.Stats().PerProgram {
		out[name] = ReplayProgramCounts{
			Runs:            ps.Runs,
			Instrs:          ps.Counters.Instrs,
			BlockDispatches: ps.Counters.BlockDispatches,
			TraceDispatches: ps.Counters.TraceDispatches,
			TracesBuilt:     ps.Counters.TracesBuilt,
			ModeMoves:       ps.ModeMoves,
		}
	}
	return out
}

func diffReplayCounts(a, b map[string]ReplayProgramCounts) string {
	names := make(map[string]bool, len(a)+len(b))
	for n := range a {
		names[n] = true
	}
	for n := range b {
		names[n] = true
	}
	sorted := make([]string, 0, len(names))
	for n := range names {
		sorted = append(sorted, n)
	}
	sort.Strings(sorted)
	for _, n := range sorted {
		ca, oka := a[n]
		cb, okb := b[n]
		if !oka || !okb {
			return fmt.Sprintf("program %q ran in one round but not the other", n)
		}
		if ca != cb {
			return fmt.Sprintf("program %q: %+v != %+v", n, ca, cb)
		}
	}
	return ""
}
