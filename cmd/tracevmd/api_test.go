package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/stats"
)

func get(t *testing.T, url string) (int, string, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b), resp.Header.Get("Content-Type")
}

// TestUnversionedPathsAreGone: /v1/ is the whole HTTP surface. The
// pre-versioning aliases are removed, so a bare path is a 404 while its /v1/
// twin answers.
func TestUnversionedPathsAreGone(t *testing.T) {
	srv, _ := newTestServer(t, serve.Config{Workers: 1})
	for _, path := range []string{"/stats", "/traces", "/metrics", "/events", "/healthz", "/readyz", "/snapshot"} {
		if code, _, _ := get(t, srv.URL+path); code != http.StatusNotFound {
			t.Errorf("GET %s: status %d, want 404", path, code)
		}
	}
	for path, want := range map[string]int{"/run": http.StatusNotFound, "/v1/run": http.StatusOK} {
		resp, err := http.Post(srv.URL+path, "application/json",
			strings.NewReader(`{"workload":"soot","mode":"plain"}`))
		if err != nil {
			t.Fatal(err)
		}
		var wire api.RunResponse
		err = json.NewDecoder(resp.Body).Decode(&wire)
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("POST %s: status %d, want %d", path, resp.StatusCode, want)
		}
		if want != http.StatusOK {
			continue
		}
		if err != nil || wire.Schema != api.SchemaRun || wire.Program != "soot" || wire.Counters.Instrs == 0 {
			t.Errorf("POST %s: err %v, schema %q, program %q, instrs %d",
				path, err, wire.Schema, wire.Program, wire.Counters.Instrs)
		}
	}
}

// TestMetricsEndpointPinsEveryCounter walks stats.Counters by reflection
// and requires each field's Prometheus series in /v1/metrics — adding a
// counter without exporting it is impossible by construction, and this
// test proves the wire side of that claim.
func TestMetricsEndpointPinsEveryCounter(t *testing.T) {
	srv, _ := newTestServer(t, serve.Config{Workers: 1})
	if _, m := postRun(t, srv.URL, `{"workload":"soot","mode":"trace"}`); m["output"] == "" {
		t.Fatal("seed run failed")
	}
	code, body, ctype := get(t, srv.URL+"/v1/metrics")
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if !strings.Contains(ctype, "text/plain") {
		t.Errorf("content type %q, want text/plain", ctype)
	}
	ct := reflect.TypeOf(stats.Counters{})
	for i := 0; i < ct.NumField(); i++ {
		name := api.CounterName(ct.Field(i).Name)
		if !strings.Contains(body, "\n"+name+" ") && !strings.HasPrefix(body, name+" ") {
			t.Errorf("/v1/metrics missing series %s", name)
		}
	}
	for _, series := range []string{
		"tracevm_requests_accepted_total",
		"tracevm_requests_completed_total",
		"tracevm_queue_depth",
		"tracevm_workers 1",
		"tracevm_request_latency_ms_bucket{le=\"+Inf\"}",
		"tracevm_request_latency_ms_count",
		"tracevm_event_ring_capacity 0",
	} {
		if !strings.Contains(body, series) {
			t.Errorf("/v1/metrics missing %s", series)
		}
	}
	// A traced run must have moved the core counters.
	if !strings.Contains(body, "tracevm_instrs_total ") ||
		strings.Contains(body, "tracevm_instrs_total 0\n") {
		t.Error("tracevm_instrs_total missing or zero after a run")
	}
}

// TestTracesEndpoint drives a tier-2-enabled daemon and reads the trace
// inventory back over the wire: schema tag, per-program grouping, the
// proven/estimated guard split, and a promoted trace with a nonzero
// compiled-dispatch share.
func TestTracesEndpoint(t *testing.T) {
	srv, _ := newTestServer(t, serve.Config{
		Workers:    1,
		TraceCache: core.Config{CompileTraces: true, TierUpDispatches: 4},
	})

	// Before any traffic the endpoint answers with an empty inventory, not
	// null.
	_, body, _ := get(t, srv.URL+"/v1/traces")
	var empty api.TracesResponse
	if err := json.Unmarshal([]byte(body), &empty); err != nil {
		t.Fatal(err)
	}
	if empty.Schema != api.SchemaTraces || empty.Programs == nil || len(empty.Programs) != 0 {
		t.Fatalf("cold inventory: %+v (programs must be [], not null)", empty)
	}

	for i := 0; i < 4; i++ {
		if _, m := postRun(t, srv.URL, `{"workload":"soot","mode":"trace"}`); m["output"] == "" {
			t.Fatal("seed run failed")
		}
	}
	code, body, ctype := get(t, srv.URL+"/v1/traces")
	if code != http.StatusOK || !strings.Contains(ctype, "application/json") {
		t.Fatalf("status %d, content type %q", code, ctype)
	}
	var tr api.TracesResponse
	if err := json.Unmarshal([]byte(body), &tr); err != nil {
		t.Fatal(err)
	}
	if tr.Schema != api.SchemaTraces {
		t.Errorf("schema %q, want %q", tr.Schema, api.SchemaTraces)
	}
	if len(tr.Programs) != 1 || tr.Programs[0].Program != "soot" {
		t.Fatalf("programs = %+v, want exactly soot", tr.Programs)
	}
	traces := tr.Programs[0].Traces
	if len(traces) == 0 {
		t.Fatal("no traces reported after 4 traced runs")
	}
	var promoted bool
	for i, e := range traces {
		if e.Key == "" || e.Blocks < 2 || e.Entered < e.Completed {
			t.Errorf("malformed entry: %+v", e)
		}
		if e.ProvenGuards+e.EstimatedGuards != e.Blocks-1 {
			t.Errorf("guard split %d+%d != %d positions", e.ProvenGuards, e.EstimatedGuards, e.Blocks-1)
		}
		if i > 0 && e.Entered > traces[i-1].Entered {
			t.Error("inventory not sorted hottest first")
		}
		if e.Tier == 2 && e.CompiledShare > 0 {
			promoted = true
		}
	}
	if !promoted {
		t.Error("no tier-2 trace with a compiled-dispatch share")
	}
}

// TestEventsEndpoint exercises the ring tail and its filters end to end.
func TestEventsEndpoint(t *testing.T) {
	srv, _ := newTestServer(t, serve.Config{Workers: 1, EventTrace: 256})
	if _, m := postRun(t, srv.URL, `{"workload":"soot","mode":"trace"}`); m["output"] == "" {
		t.Fatal("seed run failed")
	}

	decode := func(url string) api.EventsResponse {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", url, resp.StatusCode)
		}
		var er api.EventsResponse
		if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
			t.Fatal(err)
		}
		return er
	}

	all := decode(srv.URL + "/v1/events")
	if all.Schema != api.SchemaEvents {
		t.Errorf("schema %q, want %q", all.Schema, api.SchemaEvents)
	}
	if all.Cap != 256 || all.Total == 0 || len(all.Events) == 0 {
		t.Fatalf("traced run emitted no events: cap=%d total=%d held=%d", all.Cap, all.Total, all.Held)
	}
	for i := 1; i < len(all.Events); i++ {
		if all.Events[i].Seq <= all.Events[i-1].Seq {
			t.Fatalf("events out of order at %d: %d then %d", i, all.Events[i-1].Seq, all.Events[i].Seq)
		}
	}

	// Every event of the run is tagged with the program that caused it.
	byProg := decode(srv.URL + "/v1/events?program=soot")
	if len(byProg.Events) != len(all.Events) {
		t.Errorf("program filter dropped events: %d of %d", len(byProg.Events), len(all.Events))
	}
	if n := len(decode(srv.URL + "/v1/events?program=nosuch").Events); n != 0 {
		t.Errorf("bogus program matched %d events", n)
	}

	// Type filter: a traced soot run must build traces and signal states.
	built := decode(srv.URL + "/v1/events?type=trace-built")
	if len(built.Events) == 0 {
		t.Error("no trace-built events after a traced run")
	}
	for _, e := range built.Events {
		if e.Type.String() != "trace-built" {
			t.Fatalf("type filter leaked %v", e.Type)
		}
	}

	// n bounds the tail.
	if n := len(decode(srv.URL + "/v1/events?n=2").Events); n != 2 {
		t.Errorf("n=2 returned %d events", n)
	}

	// Bad parameters are 400s.
	for _, q := range []string{"?type=warp", "?n=0", "?n=x"} {
		resp, err := http.Get(srv.URL + "/v1/events" + q)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", q, resp.StatusCode)
		}
	}
}

// TestEventsEndpointDisabled: with no ring the endpoint still answers,
// with an empty tail and zero capacity.
func TestEventsEndpointDisabled(t *testing.T) {
	srv, _ := newTestServer(t, serve.Config{Workers: 1})
	code, body, _ := get(t, srv.URL+"/v1/events")
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	var er api.EventsResponse
	if err := json.Unmarshal([]byte(body), &er); err != nil {
		t.Fatal(err)
	}
	if er.Cap != 0 || len(er.Events) != 0 || er.Events == nil {
		t.Errorf("disabled ring: %+v (events must be [], not null)", er)
	}
}

// TestStatsSchemaTag: /v1/stats carries the schema tag AND still decodes
// into a bare serve.Snapshot for pre-versioning clients.
func TestStatsSchemaTag(t *testing.T) {
	srv, _ := newTestServer(t, serve.Config{Workers: 1})
	if _, m := postRun(t, srv.URL, `{"workload":"soot","mode":"plain"}`); m["output"] == "" {
		t.Fatal("seed run failed")
	}
	_, body, _ := get(t, srv.URL+"/v1/stats")
	var tagged api.StatsResponse
	if err := json.Unmarshal([]byte(body), &tagged); err != nil {
		t.Fatal(err)
	}
	if tagged.Schema != api.SchemaStats {
		t.Errorf("schema %q, want %q", tagged.Schema, api.SchemaStats)
	}
	var legacy serve.Snapshot
	if err := json.Unmarshal([]byte(body), &legacy); err != nil {
		t.Fatal(err)
	}
	if legacy.Completed != 1 || legacy.Global.Instrs == 0 {
		t.Errorf("legacy decode lost fields: completed=%d instrs=%d", legacy.Completed, legacy.Global.Instrs)
	}
}

// TestDebugMux: the pprof mux answers on its own listener paths.
func TestDebugMux(t *testing.T) {
	mux := newDebugMux()
	for _, path := range []string{"/debug/pprof/", "/debug/pprof/cmdline", "/debug/pprof/symbol"} {
		req := httptest.NewRequest(http.MethodGet, path, nil)
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Errorf("%s: status %d", path, rec.Code)
		}
	}
}
