package serve

import (
	"bytes"
	"encoding/json"
	"reflect"
	"sync"
	"time"

	"repro/internal/stats"
)

// latencyBuckets are the upper bounds (exclusive) of the request latency
// histogram, in milliseconds, doubling from 1ms; the last bucket is
// unbounded.
var latencyBuckets = []int64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096}

// LatencyBucket is one histogram cell of the snapshot.
type LatencyBucket struct {
	// UpperMs is the exclusive upper bound in milliseconds; 0 means +Inf.
	UpperMs int64
	Count   int64
}

// ProgramStats is the aggregated record of every completed session of one
// program.
type ProgramStats struct {
	Runs     int64
	Counters stats.Counters
	Metrics  stats.Metrics
	// Mode is the arm the program's mode controller is in ("trace",
	// "trace-deploy" or "plain"), or "" before its first profiled request;
	// ModeMoves counts the controller's moves into each arm.
	Mode      string
	ModeMoves ModeMoves
}

// Snapshot is a point-in-time, self-contained copy of the service's
// aggregated observability: request accounting, the global merged counters
// and their derived §5.2 metrics, per-program aggregates, registry state,
// and the request latency histogram. It shares no memory with the live
// service and is safe to retain or serialize.
type Snapshot struct {
	// Request accounting. Accepted = enqueued; of those, exactly one of
	// Completed, Failed, or TimedOut is eventually counted per request.
	Accepted  int64
	Rejected  int64 // refused with ErrQueueFull (backpressure)
	Completed int64
	Failed    int64 // run error, compile errors are not enqueued
	TimedOut  int64 // cancelled by deadline or caller context
	Panics    int64 // recovered worker panics (also counted in Failed)
	// CompileErrors counts requests refused because their program did not
	// compile; they are never enqueued.
	CompileErrors int64
	// ProgramsRejected counts requests refused because their program failed
	// bytecode verification (a subset of registration failures, reported
	// separately from CompileErrors); they are never enqueued.
	ProgramsRejected int64
	// Quarantined counts requests refused with ErrQuarantined; they are
	// never enqueued.
	Quarantined int64

	// ModeMoves sums every mode controller's moves into each arm;
	// PlainPrograms counts programs a signal storm holds in the plain arm;
	// QuarantinedPrograms counts programs past the panic threshold.
	ModeMoves           ModeMoves
	PlainPrograms       int
	QuarantinedPrograms int

	// Pool state at snapshot time. Draining is set once Close has begun.
	QueueDepth int
	QueueCap   int
	Workers    int
	Draining   bool

	// Event-trace state: ring capacity (0 = tracing disabled), events
	// currently held, and events ever emitted (the excess over held is
	// overwritten history).
	EventCap    int
	EventsHeld  int
	EventsTotal uint64

	// Registry state.
	Programs       int
	RegistryHits   int64
	RegistryMisses int64

	// RecordedRequests is the number of submissions captured by the
	// record/replay tap (0 when Config.Recorder is unset).
	RecordedRequests int64

	// Profile-persistence state (zero when Config.SnapshotDir is unset):
	// shard sets holding merged learned state, and programs whose learning
	// deltas await the coalescing writer's next commit.
	SnapshotPrograms int
	SnapshotsPending int

	// Sharded-profiling state: programs with a shard set, live per-worker
	// shards, completed epoch merges, and the total shards absorbed across
	// those merges.
	ShardPrograms int
	LiveShards    int
	EpochMerges   int64
	ShardsMerged  int64

	// Global is every completed session's Counters merged via Add; the
	// embedded stats.Metrics are its derived §5.2 values, so a Snapshot and
	// a repro.VM expose the same Metrics shape under the same name.
	Global stats.Counters
	stats.Metrics
	// PerProgram aggregates by Compiled.Name.
	PerProgram map[string]ProgramStats

	// Latency is the accepted-to-finished request latency histogram.
	Latency      []LatencyBucket
	TotalLatency time.Duration
}

// MarshalJSON serializes the snapshot field by field, in declaration order.
// It exists because the embedded stats.Metrics carries a promoted
// MarshalJSON that would otherwise hijack the whole snapshot's
// serialization, reducing /v1/stats to the six metric ratios; here the
// embedded field marshals (through its own method, which null-protects the
// non-finite ratios) under the key "Metrics" like any named field.
func (s Snapshot) MarshalJSON() ([]byte, error) {
	v := reflect.ValueOf(s)
	t := v.Type()
	var buf bytes.Buffer
	buf.WriteByte('{')
	for i := 0; i < t.NumField(); i++ {
		b, err := json.Marshal(v.Field(i).Interface())
		if err != nil {
			return nil, err
		}
		if i > 0 {
			buf.WriteByte(',')
		}
		buf.WriteByte('"')
		buf.WriteString(t.Field(i).Name)
		buf.WriteString(`":`)
		buf.Write(b)
	}
	buf.WriteByte('}')
	return buf.Bytes(), nil
}

// aggregator is the mutable heart of the snapshot: a mutex-protected merge
// of per-session counters plus service-level request accounting. Sessions
// run without any shared mutable state; aggregation happens once per
// request at completion, so the lock is uncontended in any realistic load.
type aggregator struct {
	mu           sync.Mutex
	accepted     int64
	rejected     int64
	completed    int64
	failed       int64
	timedOut     int64
	panics       int64
	compileErr   int64
	verifyRejct  int64
	quarantRejct int64
	global       stats.Counters
	perProgram   map[string]*programAgg
	latency      []int64 // len(latencyBuckets)+1, last is overflow
	totalLat     time.Duration
}

type programAgg struct {
	runs int64
	ctr  stats.Counters
}

func newAggregator() *aggregator {
	return &aggregator{
		perProgram: make(map[string]*programAgg),
		latency:    make([]int64, len(latencyBuckets)+1),
	}
}

func (a *aggregator) accept() {
	a.mu.Lock()
	a.accepted++
	a.mu.Unlock()
}

func (a *aggregator) reject() {
	a.mu.Lock()
	a.rejected++
	a.mu.Unlock()
}

func (a *aggregator) compileError() {
	a.mu.Lock()
	a.compileErr++
	a.mu.Unlock()
}

func (a *aggregator) verifyReject() {
	a.mu.Lock()
	a.verifyRejct++
	a.mu.Unlock()
}

func (a *aggregator) quarantined() {
	a.mu.Lock()
	a.quarantRejct++
	a.mu.Unlock()
}

func (a *aggregator) observeLatency(d time.Duration) {
	ms := d.Milliseconds()
	i := 0
	for i < len(latencyBuckets) && ms >= latencyBuckets[i] {
		i++
	}
	a.latency[i]++
	a.totalLat += d
}

// complete merges one successful session into the per-program and global
// totals. ctr is a quiescent-point snapshot (the session has finished).
func (a *aggregator) complete(program string, ctr *stats.Counters, lat time.Duration) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.completed++
	a.global.Add(ctr)
	p := a.perProgram[program]
	if p == nil {
		p = &programAgg{}
		a.perProgram[program] = p
	}
	p.runs++
	p.ctr.Add(ctr)
	a.observeLatency(lat)
}

func (a *aggregator) fail(lat time.Duration, panicked bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.failed++
	if panicked {
		a.panics++
	}
	a.observeLatency(lat)
}

// globalMetrics derives the §5.2 values from the live global counters —
// the Service.Metrics accessor, mirroring core.Session.Metrics.
func (a *aggregator) globalMetrics() stats.Metrics {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.global.Derive()
}

func (a *aggregator) timeout(lat time.Duration) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.timedOut++
	a.observeLatency(lat)
}

// snapshot deep-copies the aggregate state; pool/registry fields are filled
// in by the Service.
func (a *aggregator) snapshot() Snapshot {
	a.mu.Lock()
	defer a.mu.Unlock()
	s := Snapshot{
		Accepted:         a.accepted,
		Rejected:         a.rejected,
		Completed:        a.completed,
		Failed:           a.failed,
		TimedOut:         a.timedOut,
		Panics:           a.panics,
		CompileErrors:    a.compileErr,
		ProgramsRejected: a.verifyRejct,
		Quarantined:      a.quarantRejct,
		Global:           a.global.Snapshot(),
		Metrics:          a.global.Derive(),
		PerProgram:       make(map[string]ProgramStats, len(a.perProgram)),
		TotalLatency:     a.totalLat,
	}
	for name, p := range a.perProgram {
		s.PerProgram[name] = ProgramStats{
			Runs:     p.runs,
			Counters: p.ctr.Snapshot(),
			Metrics:  p.ctr.Derive(),
		}
	}
	s.Latency = make([]LatencyBucket, len(a.latency))
	for i, n := range a.latency {
		var upper int64
		if i < len(latencyBuckets) {
			upper = latencyBuckets[i]
		}
		s.Latency[i] = LatencyBucket{UpperMs: upper, Count: n}
	}
	return s
}
