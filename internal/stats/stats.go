// Package stats collects the execution counters of a VM run and derives the
// dependent values defined in §5.2 of the paper: average executed trace
// length, instruction stream coverage, dynamic trace completion rate, state
// signal rate, and trace event interval.
package stats

import (
	"encoding/json"
	"fmt"
	"math"
)

// Counters is the raw event record of one run. The engine, the profiler and
// the trace cache all increment fields here; nothing in this package is
// concurrency-safe because a machine runs single-threaded, as SableVM's
// per-thread dispatch loop does.
type Counters struct {
	// Engine counters.
	Instrs          int64 // bytecode instructions executed
	InstrDispatches int64 // per-instruction dispatches (Figure 1 engine only)
	BlockDispatches int64 // block-boundary dispatches (threaded model)
	MethodCalls     int64 // method invocations (bytecode + native)
	NativeCalls     int64 // native method invocations

	// Trace-dispatch counters.
	TraceDispatches         int64 // dispatches consumed by trace execution
	TracesEntered           int64 // trace executions started
	TracesCompleted         int64 // trace executions that ran to the end
	CompletedTraceBlocksSum int64 // total blocks executed by completed traces
	BlocksInTraces          int64 // blocks executed inside traces (incl. partial)
	InstrsInTraces          int64 // instructions executed inside traces
	InstrsInCompletedTraces int64 // instructions executed by completed traces

	// Profiler counters.
	ProfiledDispatches int64 // dispatches that executed the profiler hook
	NodesCreated       int64 // branch correlation graph nodes created
	NodesSeededUnique  int64 // nodes created pre-classified unique by static hints
	EdgesCreated       int64 // branch correlation edges created
	EdgeSpills         int64 // edge lists grown past their inline capacity
	DecayChecks        int64 // periodic decay invocations
	Signals            int64 // state-change signals sent to the trace cache

	// Trace-cache counters.
	TracesBuilt     int64 // traces constructed
	TracesReused    int64 // constructions that hash-consed an existing trace
	TracesRetired   int64 // traces removed from the dispatch map
	RebuildRequests int64 // signal-triggered reconstruction passes
	TracesEvicted   int64 // traces retired by cache budget eviction (also in TracesRetired)
	BudgetPressure  int64 // trace registrations that forced at least one eviction

	// Written by nothing; they export as zero.
	//
	// Deprecated: tier 2 was removed; kept only for benchmark/probes.go.
	TracesCompiled, TierDowns, CompiledDispatches int64

	// Snapshot (profile persistence) counters.
	SnapshotsSaved           int64 // snapshots committed to durable storage
	SnapshotsLoaded          int64 // sessions seeded from a snapshot
	SnapshotsRejected        int64 // snapshots refused (corrupt, wrong version, wrong program)
	SnapshotsQuarantined     int64 // corrupt snapshot files moved aside by the startup scrub
	NodesSeededFromSnapshot  int64 // BCG nodes restored by snapshot seeding
	TracesSeededFromSnapshot int64 // traces re-registered by snapshot seeding
}

// Metrics are the derived dependent values of §5.2.
type Metrics struct {
	// AvgTraceLength is the mean number of blocks executed by traces that
	// ran to completion (Table I).
	AvgTraceLength float64
	// Coverage is the fraction of all executed instructions executed by
	// completed traces (Table II).
	Coverage float64
	// CacheCoverage additionally counts instructions from partially
	// executed traces (the paper's "the trace cache captures 90.7%").
	CacheCoverage float64
	// CompletionRate is completed/entered trace executions (Table III).
	CompletionRate float64
	// DispatchesPerSignal is block dispatches per profiler state-change
	// signal (Table IV, reported in thousands).
	DispatchesPerSignal float64
	// TraceEventInterval is instructions executed per trace event, where an
	// event is a constructed trace or a signal (Table V, in thousands).
	TraceEventInterval float64
}

// Derive computes the dependent values from raw counters. Ratios whose
// denominator is zero are reported as 0 (no traces ever completed) or +Inf
// (no signals/events ever happened), matching how the tables read: "no
// signals" means an unboundedly long interval, while "no completed traces"
// means there is no length to report.
func (c *Counters) Derive() Metrics {
	var m Metrics
	if c.TracesCompleted > 0 {
		m.AvgTraceLength = float64(c.CompletedTraceBlocksSum) / float64(c.TracesCompleted)
	}
	if c.Instrs > 0 {
		m.Coverage = float64(c.InstrsInCompletedTraces) / float64(c.Instrs)
		m.CacheCoverage = float64(c.InstrsInTraces) / float64(c.Instrs)
	}
	if c.TracesEntered > 0 {
		m.CompletionRate = float64(c.TracesCompleted) / float64(c.TracesEntered)
	}
	m.DispatchesPerSignal = ratioOrInf(c.BlockDispatches, c.Signals)
	m.TraceEventInterval = ratioOrInf(c.Instrs, c.TracesBuilt+c.Signals)
	return m
}

// MarshalJSON serializes non-finite ratios (no signals ever → +Inf
// interval) as null, which encoding/json cannot represent and would
// otherwise reject, breaking any API that ships Metrics over the wire.
func (m Metrics) MarshalJSON() ([]byte, error) {
	finite := func(v float64) *float64 {
		if math.IsInf(v, 0) || math.IsNaN(v) {
			return nil
		}
		return &v
	}
	return json.Marshal(struct {
		AvgTraceLength      *float64
		Coverage            *float64
		CacheCoverage       *float64
		CompletionRate      *float64
		DispatchesPerSignal *float64
		TraceEventInterval  *float64
	}{
		finite(m.AvgTraceLength), finite(m.Coverage), finite(m.CacheCoverage),
		finite(m.CompletionRate), finite(m.DispatchesPerSignal), finite(m.TraceEventInterval),
	})
}

func ratioOrInf(num, den int64) float64 {
	if den == 0 {
		if num == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return float64(num) / float64(den)
}

// Add accumulates other into c (used when aggregating multiple runs).
func (c *Counters) Add(o *Counters) {
	c.Instrs += o.Instrs
	c.InstrDispatches += o.InstrDispatches
	c.BlockDispatches += o.BlockDispatches
	c.MethodCalls += o.MethodCalls
	c.NativeCalls += o.NativeCalls
	c.TraceDispatches += o.TraceDispatches
	c.TracesEntered += o.TracesEntered
	c.TracesCompleted += o.TracesCompleted
	c.CompletedTraceBlocksSum += o.CompletedTraceBlocksSum
	c.BlocksInTraces += o.BlocksInTraces
	c.InstrsInTraces += o.InstrsInTraces
	c.InstrsInCompletedTraces += o.InstrsInCompletedTraces
	c.ProfiledDispatches += o.ProfiledDispatches
	c.NodesCreated += o.NodesCreated
	c.NodesSeededUnique += o.NodesSeededUnique
	c.EdgesCreated += o.EdgesCreated
	c.EdgeSpills += o.EdgeSpills
	c.DecayChecks += o.DecayChecks
	c.Signals += o.Signals
	c.TracesBuilt += o.TracesBuilt
	c.TracesReused += o.TracesReused
	c.TracesRetired += o.TracesRetired
	c.RebuildRequests += o.RebuildRequests
	c.TracesEvicted += o.TracesEvicted
	c.BudgetPressure += o.BudgetPressure
	c.TracesCompiled += o.TracesCompiled
	c.TierDowns += o.TierDowns
	c.CompiledDispatches += o.CompiledDispatches
	c.SnapshotsSaved += o.SnapshotsSaved
	c.SnapshotsLoaded += o.SnapshotsLoaded
	c.SnapshotsRejected += o.SnapshotsRejected
	c.SnapshotsQuarantined += o.SnapshotsQuarantined
	c.NodesSeededFromSnapshot += o.NodesSeededFromSnapshot
	c.TracesSeededFromSnapshot += o.TracesSeededFromSnapshot
}

// Snapshot returns a value copy of the counters. A session mutates its
// Counters in place while it runs; aggregators that publish per-run records
// (the serve layer, the harness) must copy at a quiescent point rather than
// retain the live pointer.
func (c *Counters) Snapshot() Counters { return *c }

// String summarizes the counters for human consumption.
func (c *Counters) String() string {
	m := c.Derive()
	return fmt.Sprintf(
		"instrs=%d blockDispatches=%d traceDispatches=%d entered=%d completed=%d "+
			"avgLen=%.1f coverage=%.1f%% cacheCoverage=%.1f%% completion=%.1f%% "+
			"signals=%d tracesBuilt=%d",
		c.Instrs, c.BlockDispatches, c.TraceDispatches, c.TracesEntered, c.TracesCompleted,
		m.AvgTraceLength, m.Coverage*100, m.CacheCoverage*100, m.CompletionRate*100,
		c.Signals, c.TracesBuilt)
}
