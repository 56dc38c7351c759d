package api

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/stats"
)

func TestSnakeCase(t *testing.T) {
	cases := map[string]string{
		"Instrs":                  "instrs",
		"BlockDispatches":         "block_dispatches",
		"InstrsInCompletedTraces": "instrs_in_completed_traces",
		"BCGNodes":                "bcg_nodes",
		"TracesBuilt":             "traces_built",
	}
	for in, want := range cases {
		if got := snakeCase(in); got != want {
			t.Errorf("snakeCase(%q) = %q, want %q", in, got, want)
		}
	}
	if got := CounterName("BlockDispatches"); got != "tracevm_block_dispatches_total" {
		t.Errorf("CounterName = %q", got)
	}
}

func TestRunRequestToServe(t *testing.T) {
	req, err := RunRequest{Workload: "soot", Mode: "profile", Kind: "jasm", TimeoutMs: 250}.ToServe()
	if err != nil {
		t.Fatal(err)
	}
	if req.Mode != core.ModeProfile || req.Kind != serve.KindJasm || req.Timeout != 250*time.Millisecond {
		t.Errorf("conversion lost fields: %+v", req)
	}
	// Deployment mode is the server's to choose, so a client naming it is
	// refused like any unknown mode (400 on the wire).
	for _, mode := range []string{"warp", "trace-deploy"} {
		if _, err := (RunRequest{Mode: mode}).ToServe(); err == nil {
			t.Errorf("mode %q accepted", mode)
		}
	}
	if _, err := (RunRequest{Kind: "cobol"}).ToServe(); err == nil {
		t.Error("bad kind accepted")
	}
	// Defaults: trace mode, minijava kind.
	req, err = RunRequest{Source: "x"}.ToServe()
	if err != nil || req.Mode != core.ModeTrace || req.Kind != serve.KindMiniJava {
		t.Errorf("defaults: %+v, %v", req, err)
	}
}

func TestWriteMetricsHistogramAndLabels(t *testing.T) {
	snap := serve.Snapshot{
		Workers:      2,
		Accepted:     5,
		LiveShards:   3,
		EpochMerges:  4,
		ShardsMerged: 9,
		Global:       stats.Counters{Instrs: 1234, BlockDispatches: 99},
		PerProgram: map[string]serve.ProgramStats{
			"zeta":  {Mode: "plain"},
			"alpha": {Mode: "trace-deploy"},
			"mid":   {Mode: "trace"},
			"omega": {},
		},
		ModeMoves:     serve.ModeMoves{Plain: 1, Trace: 2, Deploy: 3},
		PlainPrograms: 1,
		Latency: []serve.LatencyBucket{
			{UpperMs: 1, Count: 3},
			{UpperMs: 2, Count: 1},
			{UpperMs: 0, Count: 1}, // +Inf overflow
		},
		TotalLatency: 7 * time.Millisecond,
	}
	var b strings.Builder
	if err := WriteMetrics(&b, snap); err != nil {
		t.Fatal(err)
	}
	out := b.String()

	for _, want := range []string{
		"tracevm_instrs_total 1234",
		"tracevm_block_dispatches_total 99",
		"tracevm_requests_accepted_total 5",
		"tracevm_workers 2",
		// Sharded-profiling gauges and counters.
		"tracevm_shards_live 3",
		"tracevm_epoch_merges_total 4",
		"tracevm_epoch_shards_merged_total 9",
		// Cumulative buckets: 3, 3+1, 3+1+1.
		`tracevm_request_latency_ms_bucket{le="1"} 3`,
		`tracevm_request_latency_ms_bucket{le="2"} 4`,
		`tracevm_request_latency_ms_bucket{le="+Inf"} 5`,
		"tracevm_request_latency_ms_sum 7",
		"tracevm_request_latency_ms_count 5",
		// Mode-controller moves per arm and the demoted-program gauge.
		`tracevm_mode_transitions_total{arm="plain"} 1`,
		`tracevm_mode_transitions_total{arm="trace"} 2`,
		`tracevm_mode_transitions_total{arm="trace-deploy"} 3`,
		"tracevm_programs_plain 1",
		// Labeled arms (core.Mode values, as in the "mode" event) in
		// sorted program order.
		`tracevm_program_mode{program="alpha"} 4`,
		`tracevm_program_mode{program="mid"} 3`,
		`tracevm_program_mode{program="zeta"} 0`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
	if strings.Index(out, `program="alpha"`) > strings.Index(out, `program="zeta"`) {
		t.Error("program modes not sorted by program")
	}
	if strings.Contains(out, `program="omega"`) {
		t.Error("a program no profiled request ran reports a mode")
	}
}

func TestStatsResponseMarshalKeepsSchema(t *testing.T) {
	resp := StatsResponse{Schema: SchemaStats, Snapshot: serve.Snapshot{
		Completed: 3,
		Global:    stats.Counters{Instrs: 42},
	}}
	b, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	if m["schema"] != SchemaStats {
		t.Errorf("schema missing from marshal: %s", b)
	}
	if m["Completed"].(float64) != 3 {
		t.Errorf("snapshot fields missing: %s", b)
	}
	var back StatsResponse
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.Schema != SchemaStats || back.Completed != 3 || back.Global.Instrs != 42 {
		t.Errorf("round trip lost fields: %+v", back)
	}
}

func TestRunResponseFrom(t *testing.T) {
	wire := RunResponseFrom(&serve.Response{
		Program:  "soot",
		Mode:     core.ModeTrace,
		Counters: stats.Counters{Instrs: 10},
		Wall:     1500 * time.Microsecond,
	})
	if wire.Schema != SchemaRun || wire.Mode != "trace" || wire.WallMs != 1.5 {
		t.Errorf("conversion: %+v", wire)
	}
}
