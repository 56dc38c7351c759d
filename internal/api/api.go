// Package api defines the versioned wire contract of the tracevmd HTTP
// daemon: the request/response structs, their schema-version constants, and
// the conversions to and from the serve layer. The daemon and every client
// (the -replay client, tests, external tooling) share these types, so the
// wire shape is pinned in exactly one place.
//
// Versioning: every route lives under /v1/ and every response carries a
// "schema" string (e.g. "tracevm/run/v1"). The unversioned routes the
// daemon served before the API was versioned remain as aliases of their
// /v1/ twins and return byte-identical bodies.
package api

import (
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/stats"
)

// Schema version constants, one per response shape. Bump the suffix only on
// an incompatible change; additive fields keep the version.
const (
	SchemaRun    = "tracevm/run/v1"
	SchemaStats  = "tracevm/stats/v1"
	SchemaTraces = "tracevm/traces/v1"
	SchemaEvents = "tracevm/events/v1"
	SchemaHealth = "tracevm/health/v1"
	SchemaReady  = "tracevm/ready/v1"
	SchemaError  = "tracevm/error/v1"
	// SchemaSnapshotInfo tags the JSON summary of a profile snapshot
	// (PUT /v1/snapshot); the snapshot binary itself carries its own format
	// tag, snapshot.Schema ("tracevm/snapshot/v1").
	SchemaSnapshotInfo = "tracevm/snapshot-info/v1"
)

// RunRequest is the wire form of one execution order (POST /v1/run).
type RunRequest struct {
	Workload  string  `json:"workload,omitempty"`
	Source    string  `json:"source,omitempty"`
	Kind      string  `json:"kind,omitempty"` // "minijava" (default) or "jasm"
	Mode      string  `json:"mode,omitempty"` // default "trace"
	Threshold float64 `json:"threshold,omitempty"`
	Delay     int32   `json:"delay,omitempty"`
	Decay     uint32  `json:"decay,omitempty"`
	MaxSteps  int64   `json:"maxSteps,omitempty"`
	TimeoutMs int64   `json:"timeoutMs,omitempty"`
}

// ToServe validates the wire request and converts it to a serve.Request.
func (r RunRequest) ToServe() (serve.Request, error) {
	mode, err := ParseMode(r.Mode)
	if err != nil {
		return serve.Request{}, err
	}
	var kind serve.SourceKind
	switch r.Kind {
	case "", "minijava":
		kind = serve.KindMiniJava
	case "jasm":
		kind = serve.KindJasm
	default:
		return serve.Request{}, fmt.Errorf("unknown source kind %q (minijava, jasm)", r.Kind)
	}
	return serve.Request{
		Workload:      r.Workload,
		Source:        r.Source,
		Kind:          kind,
		Mode:          mode,
		Threshold:     r.Threshold,
		StartDelay:    r.Delay,
		DecayInterval: r.Decay,
		MaxSteps:      r.MaxSteps,
		Timeout:       time.Duration(r.TimeoutMs) * time.Millisecond,
	}, nil
}

// RunResponse is the wire form of one completed run.
type RunResponse struct {
	Schema    string         `json:"schema"`
	Program   string         `json:"program"`
	Key       string         `json:"key"`
	Mode      string         `json:"mode"`
	Output    string         `json:"output"`
	Counters  stats.Counters `json:"counters"`
	Metrics   stats.Metrics  `json:"metrics"`
	NumTraces int            `json:"numTraces"`
	BCGNodes  int            `json:"bcgNodes"`
	Cached    int            `json:"cachedBlocks"`
	Demoted   bool           `json:"demoted,omitempty"`
	WallMs    float64        `json:"wallMs"`
}

// RunResponseFrom converts a completed serve.Response to its wire form.
func RunResponseFrom(resp *serve.Response) RunResponse {
	return RunResponse{
		Schema:    SchemaRun,
		Program:   resp.Program,
		Key:       resp.Key,
		Mode:      resp.Mode.String(),
		Output:    resp.Output,
		Counters:  resp.Counters,
		Metrics:   resp.Metrics,
		NumTraces: resp.NumTraces,
		BCGNodes:  resp.BCGNodes,
		Cached:    resp.CachedBlocks,
		Demoted:   resp.Demoted,
		WallMs:    float64(resp.Wall) / float64(time.Millisecond),
	}
}

// ErrorResponse is the wire form of every non-2xx body.
type ErrorResponse struct {
	Schema string `json:"schema"`
	Error  string `json:"error"`
	// Report carries the structured verification findings when the program
	// was rejected by the bytecode verifier.
	Report *analysis.Report `json:"report,omitempty"`
}

// NewError builds an ErrorResponse with the schema stamped.
func NewError(msg string) ErrorResponse { return ErrorResponse{Schema: SchemaError, Error: msg} }

// StatsResponse wraps the service snapshot with its schema tag
// (GET /v1/stats). The Snapshot marshals inline, so existing consumers that
// decode straight into serve.Snapshot keep working.
type StatsResponse struct {
	Schema string `json:"schema"`
	serve.Snapshot
}

// MarshalJSON splices the schema tag into the snapshot's own serialization.
// Without it the embedded Snapshot's promoted MarshalJSON would serialize
// the whole response and silently drop the schema field.
func (s StatsResponse) MarshalJSON() ([]byte, error) {
	b, err := s.Snapshot.MarshalJSON()
	if err != nil {
		return nil, err
	}
	tag, _ := json.Marshal(s.Schema)
	out := make([]byte, 0, len(b)+len(tag)+12)
	out = append(out, `{"schema":`...)
	out = append(out, tag...)
	if len(b) > 2 { // non-empty object: keep its fields
		out = append(out, ',')
		out = append(out, b[1:]...)
		return out, nil
	}
	return append(out, '}'), nil
}

// TraceEntry is the wire form of one live trace: identity (canonical block
// key, entry block, length), execution tier, the proven/estimated guard
// split, and the tier-1 versus tier-2 dispatch accounting.
type TraceEntry struct {
	Key             string `json:"key"`
	EntryBlock      int    `json:"entryBlock"`
	Blocks          int    `json:"blocks"`
	Tier            int    `json:"tier"`
	Shards          int    `json:"shards"`
	Entered         int64  `json:"entered"`
	Completed       int64  `json:"completed"`
	ProvenGuards    int    `json:"provenGuards"`
	EstimatedGuards int    `json:"estimatedGuards"`
	CompiledEntered int64  `json:"compiledEntered"`
	// CompiledShare is the fraction of this trace's dispatches that ran the
	// compiled form (0 when the trace never promoted).
	CompiledShare      float64 `json:"compiledShare"`
	CompiledGuardExits int64   `json:"compiledGuardExits,omitempty"`
	CompileBarred      bool    `json:"compileBarred,omitempty"`
}

// ProgramTraces is one program's trace inventory on the wire.
type ProgramTraces struct {
	Program string       `json:"program"`
	Traces  []TraceEntry `json:"traces"`
}

// TracesResponse is the wire form of GET /v1/traces: the per-program live
// trace inventory, hottest traces first.
type TracesResponse struct {
	Schema   string          `json:"schema"`
	Programs []ProgramTraces `json:"programs"`
}

// TracesResponseFrom converts the service's trace inventory to its wire
// form, deriving each trace's compiled-dispatch share.
func TracesResponseFrom(inv []serve.ProgramTraces) TracesResponse {
	resp := TracesResponse{Schema: SchemaTraces, Programs: make([]ProgramTraces, 0, len(inv))}
	for _, p := range inv {
		wp := ProgramTraces{Program: p.Program, Traces: make([]TraceEntry, 0, len(p.Traces))}
		for _, t := range p.Traces {
			e := TraceEntry{
				Key:                t.Key,
				EntryBlock:         t.Entry,
				Blocks:             t.Blocks,
				Tier:               t.Tier,
				Shards:             t.Shards,
				Entered:            t.Entered,
				Completed:          t.Completed,
				ProvenGuards:       t.ProvenGuards,
				EstimatedGuards:    t.EstimatedGuards,
				CompiledEntered:    t.CompiledEntered,
				CompiledGuardExits: t.CompiledGuardExits,
				CompileBarred:      t.Barred,
			}
			if t.Entered > 0 {
				e.CompiledShare = float64(t.CompiledEntered) / float64(t.Entered)
			}
			wp.Traces = append(wp.Traces, e)
		}
		resp.Programs = append(resp.Programs, wp)
	}
	return resp
}

// EventsResponse is the wire form of GET /v1/events: the newest matching
// tail of the service's shared event ring, oldest first.
type EventsResponse struct {
	Schema string `json:"schema"`
	// Total is the number of events ever emitted; Held is the number the
	// ring currently retains; Cap is its fixed capacity (0 = tracing
	// disabled).
	Total uint64 `json:"total"`
	Held  int    `json:"held"`
	Cap   int    `json:"cap"`
	// Events is the filtered tail.
	Events []obs.Event `json:"events"`
}

// SnapshotInfoResponse summarizes an accepted profile snapshot
// (PUT /v1/snapshot): the program identity it is keyed to and how much
// learned state it carries.
type SnapshotInfoResponse struct {
	Schema  string `json:"schema"`
	Program string `json:"program,omitempty"`
	Key     string `json:"key"`
	Nodes   int    `json:"nodes"`
	Traces  int    `json:"traces"`
}

// HealthResponse is the wire form of GET /v1/healthz.
type HealthResponse struct {
	Schema     string `json:"schema"`
	Status     string `json:"status"`
	Workers    int    `json:"workers"`
	QueueDepth int    `json:"queueDepth"`
}

// ReadyResponse is the wire form of GET /v1/readyz.
type ReadyResponse struct {
	Schema              string `json:"schema"`
	Status              string `json:"status"`
	QueueDepth          int    `json:"queueDepth"`
	QueueCap            int    `json:"queueCap"`
	OpenBreakers        int    `json:"openBreakers"`
	HalfOpenBreakers    int    `json:"halfOpenBreakers"`
	QuarantinedPrograms int    `json:"quarantinedPrograms"`
}

// ModeNames maps wire mode names to dispatch modes.
var ModeNames = map[string]core.Mode{
	"plain":        core.ModePlain,
	"instr":        core.ModeInstr,
	"profile":      core.ModeProfile,
	"trace":        core.ModeTrace,
	"trace-deploy": core.ModeTraceDeploy,
}

// ParseMode maps a wire mode name to a dispatch mode; empty defaults to
// trace.
func ParseMode(s string) (core.Mode, error) {
	if s == "" {
		return core.ModeTrace, nil
	}
	if m, ok := ModeNames[s]; ok {
		return m, nil
	}
	return 0, fmt.Errorf("unknown mode %q (plain, instr, profile, trace, trace-deploy)", s)
}
