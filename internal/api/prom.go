package api

import (
	"fmt"
	"io"
	"math"
	"reflect"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/serve"
)

// WriteMetrics renders a service snapshot in the Prometheus text exposition
// format (version 0.0.4). Every stats.Counters field is exported via a
// reflection walk — adding a counter to stats automatically adds a series
// here — plus the serve layer's request accounting, pool/registry gauges,
// mode-controller state, event-ring gauges, and the request latency
// histogram.
func WriteMetrics(w io.Writer, snap serve.Snapshot) error {
	pw := &promWriter{w: w}

	// Global merged VM counters, one series per stats.Counters field.
	cv := reflect.ValueOf(snap.Global)
	ct := cv.Type()
	for i := 0; i < ct.NumField(); i++ {
		f := ct.Field(i)
		pw.counter(CounterName(f.Name), "stats.Counters."+f.Name, float64(cv.Field(i).Int()))
	}

	// Derived §5.2 metrics as gauges; non-finite ratios are skipped rather
	// than emitted (Prometheus accepts +Inf but it poisons dashboards).
	mv := reflect.ValueOf(snap.Metrics)
	mt := mv.Type()
	for i := 0; i < mt.NumField(); i++ {
		v := mv.Field(i).Float()
		if math.IsInf(v, 0) || math.IsNaN(v) {
			continue
		}
		pw.gauge("tracevm_metric_"+snakeCase(mt.Field(i).Name), "derived §5.2 metric", v)
	}

	// Request accounting.
	pw.counter("tracevm_requests_accepted_total", "requests enqueued", float64(snap.Accepted))
	pw.counter("tracevm_requests_rejected_total", "requests refused by backpressure", float64(snap.Rejected))
	pw.counter("tracevm_requests_completed_total", "requests finished successfully", float64(snap.Completed))
	pw.counter("tracevm_requests_failed_total", "requests finished with a run error", float64(snap.Failed))
	pw.counter("tracevm_requests_timed_out_total", "requests cancelled by deadline", float64(snap.TimedOut))
	pw.counter("tracevm_worker_panics_total", "recovered worker panics", float64(snap.Panics))
	pw.counter("tracevm_compile_errors_total", "requests whose program failed to compile", float64(snap.CompileErrors))
	pw.counter("tracevm_programs_rejected_total", "requests whose program failed bytecode verification", float64(snap.ProgramsRejected))
	pw.counter("tracevm_quarantined_requests_total", "requests refused because the program is quarantined", float64(snap.Quarantined))
	pw.counter("tracevm_requests_recorded_total", "submissions captured by the record/replay tap", float64(snap.RecordedRequests))

	// Mode-controller moves per arm, and the governors' gauges.
	pw.header("tracevm_mode_transitions_total", "mode-controller moves into each arm", "counter")
	pw.labeled("tracevm_mode_transitions_total", "arm", "plain", float64(snap.ModeMoves.Plain))
	pw.labeled("tracevm_mode_transitions_total", "arm", "trace", float64(snap.ModeMoves.Trace))
	pw.labeled("tracevm_mode_transitions_total", "arm", "trace-deploy", float64(snap.ModeMoves.Deploy))
	pw.gauge("tracevm_programs_plain", "programs a signal storm holds in the plain arm", float64(snap.PlainPrograms))
	pw.gauge("tracevm_programs_quarantined", "programs past the panic quarantine threshold", float64(snap.QuarantinedPrograms))

	// Pool, registry, and event-ring state.
	pw.gauge("tracevm_queue_depth", "jobs waiting in the pool queue", float64(snap.QueueDepth))
	pw.gauge("tracevm_queue_capacity", "pool queue capacity", float64(snap.QueueCap))
	pw.gauge("tracevm_workers", "session worker goroutines", float64(snap.Workers))
	pw.gauge("tracevm_draining", "1 once Close has begun", b2f(snap.Draining))
	pw.gauge("tracevm_programs", "programs in the registry", float64(snap.Programs))
	pw.counter("tracevm_registry_hits_total", "program registry cache hits", float64(snap.RegistryHits))
	pw.counter("tracevm_registry_misses_total", "program registry cache misses", float64(snap.RegistryMisses))
	pw.gauge("tracevm_event_ring_capacity", "event trace ring capacity (0 = disabled)", float64(snap.EventCap))
	pw.gauge("tracevm_event_ring_held", "events currently retained by the ring", float64(snap.EventsHeld))
	pw.counter("tracevm_events_emitted_total", "observability events ever emitted", float64(snap.EventsTotal))
	pw.gauge("tracevm_snapshot_programs", "programs holding a warm profile snapshot", float64(snap.SnapshotPrograms))
	pw.gauge("tracevm_snapshots_pending", "programs with learning deltas awaiting the coalescing snapshot writer", float64(snap.SnapshotsPending))

	// Sharded-profiling state.
	pw.gauge("tracevm_shard_programs", "programs with a per-worker profiler shard set", float64(snap.ShardPrograms))
	pw.gauge("tracevm_shards_live", "live per-worker profiler shards", float64(snap.LiveShards))
	pw.counter("tracevm_epoch_merges_total", "completed epoch merges of per-worker profiler shards", float64(snap.EpochMerges))
	pw.counter("tracevm_epoch_shards_merged_total", "shards absorbed across all epoch merges", float64(snap.ShardsMerged))

	// Per-program mode-controller arm as its core.Mode value, the numbering
	// the "mode" event's Old/New use, one labeled gauge per program in
	// sorted order for stable output.
	names := make([]string, 0, len(snap.PerProgram))
	for name, ps := range snap.PerProgram {
		if ps.Mode != "" {
			names = append(names, name)
		}
	}
	if len(names) > 0 {
		sort.Strings(names)
		pw.header("tracevm_program_mode", "per-program mode-controller arm (0=plain, 3=trace, 4=trace-deploy)", "gauge")
		for _, name := range names {
			arm := core.ModePlain
			for m := core.ModePlain; m <= core.ModeTraceDeploy; m++ {
				if m.String() == snap.PerProgram[name].Mode {
					arm = m
				}
			}
			pw.labeled("tracevm_program_mode", "program", name, float64(arm))
		}
	}

	// Request latency histogram in the native Prometheus shape: cumulative
	// buckets, then _sum and _count.
	pw.header("tracevm_request_latency_ms", "accepted-to-finished request latency", "histogram")
	var cum int64
	for _, b := range snap.Latency {
		cum += b.Count
		le := "+Inf"
		if b.UpperMs > 0 {
			le = fmt.Sprintf("%d", b.UpperMs)
		}
		pw.labeled("tracevm_request_latency_ms_bucket", "le", le, float64(cum))
	}
	pw.plain("tracevm_request_latency_ms_sum", float64(snap.TotalLatency.Milliseconds()))
	pw.plain("tracevm_request_latency_ms_count", float64(cum))

	return pw.err
}

// CounterName maps a stats.Counters field name to its Prometheus series name
// (e.g. "BlockDispatches" -> "tracevm_block_dispatches_total"). Exported so
// tests can pin that every field is present in the rendered output.
func CounterName(field string) string { return "tracevm_" + snakeCase(field) + "_total" }

type promWriter struct {
	w   io.Writer
	err error
}

func (p *promWriter) printf(format string, args ...any) {
	if p.err != nil {
		return
	}
	_, p.err = fmt.Fprintf(p.w, format, args...)
}

func (p *promWriter) header(name, help, typ string) {
	if help != "" {
		p.printf("# HELP %s %s\n", name, help)
	}
	p.printf("# TYPE %s %s\n", name, typ)
}

func (p *promWriter) counter(name, help string, v float64) {
	p.header(name, help, "counter")
	p.plain(name, v)
}

func (p *promWriter) gauge(name, help string, v float64) {
	p.header(name, help, "gauge")
	p.plain(name, v)
}

func (p *promWriter) plain(name string, v float64) {
	p.printf("%s %s\n", name, formatValue(v))
}

func (p *promWriter) labeled(name, label, value string, v float64) {
	p.printf("%s{%s=%q} %s\n", name, label, escapeLabel(value), formatValue(v))
}

// formatValue renders integral values without an exponent or trailing
// zeros; everything else falls back to %g.
func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return s
}

// snakeCase converts a Go exported field name to snake_case
// ("BlockDispatches" -> "block_dispatches", "BCGNodes" -> "bcg_nodes").
func snakeCase(s string) string {
	var b strings.Builder
	rs := []rune(s)
	for i, r := range rs {
		if r >= 'A' && r <= 'Z' {
			prevLower := i > 0 && rs[i-1] >= 'a' && rs[i-1] <= 'z'
			nextLower := i+1 < len(rs) && rs[i+1] >= 'a' && rs[i+1] <= 'z'
			if i > 0 && (prevLower || nextLower) {
				b.WriteByte('_')
			}
			b.WriteRune(r - 'A' + 'a')
			continue
		}
		b.WriteRune(r)
	}
	return b.String()
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
