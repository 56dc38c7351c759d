package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/vm"
)

// This file is the traced run. It replays a prefix of the timed list three
// times through the same closed loop — against the daemon (client-side
// numbers and /v1/stats deltas), in-process without spans, and in-process
// with spans — and then probes each layer's public functions directly
// (probes.go). End-to-end numbers never come from here.

// builtinNames are the programs of the steady rows, in the paper's reporting
// order; BENCHMARK.json lists a client.p50_ms.<program> for each, so the set
// is fixed here rather than read from workload.Names().
var builtinNames = []string{"compress", "javac", "raytrace", "mpegaudio", "soot", "scimark"}

// idBase tags a traced request: its index rides in serve.Request.Timeout as
// idBase+index, the one request field that reaches the Injector callbacks
// and changes nothing about the run (a day-long deadline never fires).
const idBase = 24 * time.Hour

// tracer implements serve.Injector. BeforeExec and AfterRun stamp the two
// instants inside Service.Do that are visible from outside: the worker
// picking the job up and the VM returning.
type tracer struct {
	rec *recorder
	// marks and respBytes are indexed by request; each slot is written by
	// the one goroutine handling that request.
	marks     []struct{ before, after time.Time }
	respBytes []float64

	mu   sync.Mutex
	seen map[int]bool // programs already submitted to this service
}

func (tr *tracer) slot(req serve.Request) int {
	if i := int(req.Timeout - idBase); req.Timeout >= idBase && i < len(tr.marks) {
		return i
	}
	return -1
}

func (tr *tracer) BeforeExec(req serve.Request) {
	if i := tr.slot(req); i >= 0 {
		tr.marks[i].before = time.Now()
	}
}

func (tr *tracer) WrapDispatch(h vm.DispatchHook) vm.DispatchHook { return h }

func (tr *tracer) AfterRun(req serve.Request, _ *core.Session) {
	if i := tr.slot(req); i >= 0 {
		tr.marks[i].after = time.Now()
	}
}

// firstSight reports whether program has not been submitted before, and
// marks it submitted.
func (tr *tracer) firstSight(program int) bool {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	first := !tr.seen[program]
	tr.seen[program] = true
	return first
}

// newService builds the in-process twin of the workload's daemon: the same
// serve.Config cmd/tracevmd derives from its flag defaults plus the
// workload's flags.
func (b *bench) newService(s spec, inj serve.Injector) (*serve.Service, error) {
	conf := serve.Config{
		Workers:    b.workers,
		EventTrace: 4096,
		TraceCache: core.Config{MaxTraces: 512, MaxCachedBlocks: 8192, CompileTraces: s.compileTraces},
		Breaker:    serve.BreakerConfig{ChurnPerK: 8, TripAfter: 3, Cooldown: 30 * time.Second},
		Injector:   inj,
	}
	if s.snapshots {
		dir, err := os.MkdirTemp(b.tmp, "snap-")
		if err != nil {
			return nil, err
		}
		conf.SnapshotDir, conf.SnapshotInterval = dir, snapshotInterval
	}
	return serve.New(conf), nil
}

// inprocSender does what the daemon's POST /v1/run handler does — decode,
// ToServe, Service.Do, RunResponseFrom, encode — without the HTTP
// transport. With a tracer it also records the request's span tree:
//
//	request
//	├─ api.decode
//	├─ serve.resolve.hit | serve.resolve.miss   (Registry lookup made ahead of Do)
//	├─ serve.do
//	│  ├─ serve.queue_wait      Do entry → worker pick-up (BeforeExec)
//	│  ├─ serve.session_setup   pick-up → VM start (shard acquire, NewSession)
//	│  ├─ vm.run                Response.Wall, ending at AfterRun
//	│  └─ serve.finish          AfterRun → Do return (release, merge, accounting)
//	└─ api.encode
func inprocSender(svc *serve.Service, tr *tracer) sender {
	return func(_, i int, r *request) (api.RunResponse, time.Duration, error) {
		start := time.Now()
		var wire api.RunRequest
		if err := json.NewDecoder(bytes.NewReader(r.Body)).Decode(&wire); err != nil {
			return api.RunResponse{}, 0, err
		}
		req, err := wire.ToServe()
		if err != nil {
			return api.RunResponse{}, 0, err
		}
		decoded := time.Now()
		var resolveName string
		var resolving, resolved time.Time
		if tr != nil {
			resolveName = "serve.resolve.hit"
			if tr.firstSight(r.Program) {
				resolveName = "serve.resolve.miss"
			}
			resolving = time.Now()
			// Errors resurface from Do, which resolves again (a hit).
			if req.Workload != "" {
				_, _ = svc.Registry().Workload(req.Workload)
			} else {
				_, _ = svc.Registry().Source(req.Kind, req.Source)
			}
			resolved = time.Now()
			req.Timeout = idBase + time.Duration(i)
		}
		doing := time.Now()
		resp, err := svc.Do(context.Background(), req)
		done := time.Now()
		if err != nil {
			return api.RunResponse{}, done.Sub(start), err
		}
		out := api.RunResponseFrom(resp)
		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode(out); err != nil {
			return api.RunResponse{}, 0, err
		}
		end := time.Now()
		if tr != nil {
			m := tr.marks[i]
			vmStart := m.after.Add(-resp.Wall)
			if vmStart.Before(m.before) {
				vmStart = m.before
			}
			root := tr.rec.add("request", start, end, -1, i)
			tr.rec.add("api.decode", start, decoded, root, i)
			tr.rec.add(resolveName, resolving, resolved, root, i)
			do := tr.rec.add("serve.do", doing, done, root, i)
			tr.rec.add("serve.queue_wait", doing, m.before, do, i)
			tr.rec.add("serve.session_setup", m.before, vmStart, do, i)
			tr.rec.add("vm.run", vmStart, m.after, do, i)
			tr.rec.add("serve.finish", m.after, done, do, i)
			tr.rec.add("api.encode", done, end, root, i)
			tr.respBytes[i] = float64(buf.Len())
		}
		return out, end.Sub(start), nil
	}
}

// inprocPass warms a fresh in-process service and plays reqs through it.
func (b *bench) inprocPass(s spec, t *traffic, reqs []request, tr *tracer) ([]sample, error) {
	var inj serve.Injector
	if tr != nil {
		inj = tr
	}
	svc, err := b.newService(s, inj)
	if err != nil {
		return nil, err
	}
	defer svc.Close()
	warm, _ := play(t, t.Warmup, b.workers, runDeadline(10), inprocSender(svc, nil))
	if n, first := failures(warm); n > 0 {
		return nil, fmt.Errorf("%s: in-process warm-up: %d failed, first: %v", s.name, n, first)
	}
	if tr != nil {
		for i := range t.Warmup {
			tr.firstSight(t.Warmup[i].Program)
		}
	}
	samples, _ := play(t, reqs, b.workers, runDeadline(10), inprocSender(svc, tr))
	return samples, nil
}

// daemonPass sets a daemon up, plays reqs at it and returns the samples with
// /v1/stats from before and after.
func (b *bench) daemonPass(s spec, t *traffic, reqs []request) (samples []sample, st0, st1 daemonStats, err error) {
	d, _, err := b.setUp(s, t)
	if err != nil {
		return nil, st0, st1, err
	}
	defer func() {
		if serr := d.stop(); err == nil {
			err = serr
		}
	}()
	if st0, err = d.stats(); err != nil {
		return nil, st0, st1, err
	}
	samples, _ = play(t, reqs, b.workers, runDeadline(10), httpSender(d.base, b.workers))
	st1, err = d.stats()
	return samples, st0, st1, err
}

// runTraced measures the per-layer metrics of one workload.
func (b *bench) runTraced(s spec, seed uint64, seconds float64) (result, error) {
	t := generate(s, seed, seconds, b.builtins)
	n := min(len(t.Timed), max(int(s.prefix*float64(len(t.Timed))), 2*len(b.builtins)))
	reqs := t.Timed[:n]
	m := map[string]metric{}
	var all []sample

	// Pass 1: the daemon, for what only a client or /v1/stats can see.
	daemonSamples, st0, st1, err := b.daemonPass(s, &t, reqs)
	if err != nil {
		return result{}, err
	}
	all = append(all, daemonSamples...)
	for _, name := range builtinNames {
		m["client.p50_ms."+name] = metric{median(latenciesMs(daemonSamples, func(i int) bool {
			return t.Programs[reqs[i].Program].Name == name
		})), "ms"}
	}
	for _, mode := range []string{"plain", "trace"} {
		m["client.p50_ms."+mode] = metric{median(latenciesMs(daemonSamples, func(i int) bool { return reqs[i].Mode == mode })), "ms"}
	}
	m["client.p99_ms"] = metric{percentile(latenciesMs(daemonSamples, nil), 99), "ms"}
	var instrs, blocks, traces []float64
	for i := range daemonSamples {
		if c := &daemonSamples[i].resp.Counters; daemonSamples[i].err == nil {
			instrs = append(instrs, float64(c.Instrs))
			blocks = append(blocks, float64(c.BlockDispatches))
			traces = append(traces, float64(c.TraceDispatches))
		}
	}
	m["vm.instrs"] = metric{median(instrs), "count"}
	m["vm.block_dispatches"] = metric{median(blocks), "count"}
	m["vm.trace_dispatches"] = metric{median(traces), "count"}
	for name, delta := range map[string]int64{
		"serve.epoch_merges":    st1.EpochMerges - st0.EpochMerges,
		"serve.shards_merged":   st1.ShardsMerged - st0.ShardsMerged,
		"serve.registry_hits":   st1.RegistryHits - st0.RegistryHits,
		"serve.registry_misses": st1.RegistryMisses - st0.RegistryMisses,
		"serve.rejected":        st1.Rejected - st0.Rejected,
		"snapshot.commits":      st1.Global.SnapshotsSaved - st0.Global.SnapshotsSaved,
	} {
		m[name] = metric{float64(delta), "count"}
	}

	// Pass 2: in-process, no spans. The gap to pass 1 is the HTTP transport.
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	plain, err := b.inprocPass(s, &t, reqs, nil)
	if err != nil {
		return result{}, err
	}
	runtime.ReadMemStats(&ms1)
	all = append(all, plain...)
	served := float64(len(t.Warmup) + len(reqs))
	m["runtime.alloc_kb_per_req"] = metric{float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1024 / served, "KB"}
	m["runtime.gc_cycles"] = metric{float64(ms1.NumGC - ms0.NumGC), "count"}
	// Paired by request, so the programs' own run times cancel.
	var overhead []float64
	for i := range reqs {
		if daemonSamples[i].err == nil && plain[i].err == nil {
			overhead = append(overhead, float64(daemonSamples[i].lat-plain[i].lat)/float64(time.Microsecond))
		}
	}
	m["http.overhead_us"] = metric{median(overhead), "us"}

	// Pass 3: in-process with spans.
	rec := newRecorder()
	tr := &tracer{
		rec: rec, seen: map[int]bool{},
		marks: make([]struct{ before, after time.Time }, len(reqs)), respBytes: make([]float64, len(reqs)),
	}
	traced, err := b.inprocPass(s, &t, reqs, tr)
	if err != nil {
		return result{}, err
	}
	all = append(all, traced...)
	if base := classGmeanMs(&t, reqs, plain); base > 0 {
		m["tracing.overhead_pct"] = metric{(classGmeanMs(&t, reqs, traced)/base - 1) * 100, "%"}
	}
	m["tracing.unattributed_share"] = metric{rec.unattributedShare("request"), "ratio"}
	m["api.response_bytes"] = metric{median(tr.respBytes), "B"}
	m["serve.resolve_miss_ms"] = metric{median(rec.micros("serve.resolve.miss")) / 1e3, "ms"}
	for name, spanName := range map[string]string{
		"api.decode_us":          "api.decode",
		"api.encode_us":          "api.encode",
		"serve.resolve_hit_us":   "serve.resolve.hit",
		"serve.queue_wait_us":    "serve.queue_wait",
		"serve.session_setup_us": "serve.session_setup",
		"serve.finish_us":        "serve.finish",
	} {
		m[name] = metric{median(rec.micros(spanName)), "us"}
	}

	// Direct calls into each layer.
	if err := b.probe(rec, &t, reqs, m); err != nil {
		return result{}, err
	}
	if err := rec.write(filepath.Join(b.outDir, "spans-"+s.name+".json"), s.name); err != nil {
		return result{}, err
	}

	failed, first := failures(all)
	if first != nil {
		b.logf("%s (traced): %d of %d requests failed, first: %v", s.name, failed, len(all), first)
	}
	return result{Correct: failed == 0, Attempted: len(all), Failed: failed, Metrics: m}, nil
}
