package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/replay"
	"repro/internal/serve"
)

func newTestServer(t *testing.T, cfg serve.Config) (*httptest.Server, *serve.Service) {
	t.Helper()
	svc := serve.New(cfg)
	srv := httptest.NewServer(newMux(svc))
	t.Cleanup(func() {
		srv.Close()
		svc.Close()
	})
	return srv, svc
}

func postRun(t *testing.T, url string, body string) (*http.Response, map[string]any) {
	t.Helper()
	resp, err := http.Post(url+"/v1/run", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatalf("decode: %v", err)
	}
	return resp, m
}

func TestRunEndpoint(t *testing.T) {
	srv, _ := newTestServer(t, serve.Config{Workers: 2})

	resp, m := postRun(t, srv.URL, `{"workload":"soot","mode":"trace"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %v", resp.StatusCode, m)
	}
	if m["program"] != "soot" || m["mode"] != "trace" {
		t.Errorf("response: program=%v mode=%v", m["program"], m["mode"])
	}
	out, _ := m["output"].(string)
	if !strings.Contains(out, "checksum=138015871") {
		t.Errorf("soot output missing checksum: %q", out)
	}
	ctr, _ := m["counters"].(map[string]any)
	if ctr == nil || ctr["Instrs"].(float64) == 0 {
		t.Errorf("counters missing: %v", m["counters"])
	}
}

func TestRunEndpointInlineSource(t *testing.T) {
	srv, _ := newTestServer(t, serve.Config{Workers: 1})
	resp, m := postRun(t, srv.URL, `{"source":"class Main { static void main() { Sys.printlnInt(42); } }"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %v", resp.StatusCode, m)
	}
	if m["output"] != "42\n" {
		t.Errorf("output = %v", m["output"])
	}
}

func TestRunEndpointErrors(t *testing.T) {
	// The injector records the threshold each run was submitted with.
	var threshold atomic.Uint64
	srv, _ := newTestServer(t, serve.Config{Workers: 1, Injector: serve.InjectorFuncs{
		Exec: func(req serve.Request) { threshold.Store(math.Float64bits(req.Threshold)) },
	}})

	const tiny = `"class Main { static void main() { Sys.printlnInt(42); } }"`
	// A body one byte over the 1 MiB cap.
	oversized := `{"source":"` + strings.Repeat(" ", 1<<20+1-len(`{"source":""}`)) + `"}`
	cases := []struct {
		name, body string
		status     int
		// For 200s: the mode the response reports and the threshold the run
		// received, both as json.Unmarshal decodes the body.
		mode      string
		threshold float64
		// For 422s from the verifier: the rule of the report's first finding.
		rule string
	}{
		{name: "bad json", body: `{`, status: http.StatusBadRequest},
		{name: "bad mode", body: `{"workload":"soot","mode":"warp"}`, status: http.StatusBadRequest},
		{name: "bad kind", body: `{"source":"x","kind":"cobol"}`, status: http.StatusBadRequest},
		// Deployment mode is the server's choice, not the client's.
		{name: "deploy mode", body: `{"workload":"soot","mode":"trace-deploy"}`, status: http.StatusBadRequest},
		{name: "no program", body: `{}`, status: http.StatusUnprocessableEntity},
		{name: "compile error", body: `{"source":"class {"}`, status: http.StatusUnprocessableEntity},
		{name: "stack underflow", body: `{"kind":"jasm","source":".class Main\n.method static main ( ) void\n iadd\n return\n.end\n.end\n.entry Main main\n"}`,
			status: http.StatusUnprocessableEntity, rule: "stack-underflow"},
		{name: "run trap", body: `{"source":"class Main { static void main() { Sys.printlnInt(1/0); } }"}`, status: http.StatusUnprocessableEntity},
		// Only whitespace may follow the request object.
		{name: "trailing data", body: `{"workload":"soot"} x`, status: http.StatusBadRequest},
		{name: "body over 1 MiB", body: oversized, status: http.StatusBadRequest},
		{name: "after oversized", body: `{"source":` + tiny + `,"mode":"plain"}`, status: http.StatusOK, mode: "plain"},
		// Shapes only encoding/json handles: a case-folded key, an unknown
		// key with a nested value.
		{name: "json.Unmarshal shape", body: `{"source":` + tiny + `,"Mode":"plain","extra":[1,{"a":null}],"threshold":0.9}`,
			status: http.StatusOK, mode: "plain", threshold: 0.9},
	}
	for _, c := range cases {
		resp, m := postRun(t, srv.URL, c.body)
		if resp.StatusCode != c.status {
			t.Errorf("%s: status %d, want %d (%v)", c.name, resp.StatusCode, c.status, m)
		}
		if c.status != http.StatusOK {
			if s, _ := m["error"].(string); s == "" {
				t.Errorf("%s: no error message", c.name)
			}
			if c.rule != "" {
				rep, _ := m["report"].(map[string]any)
				findings, _ := rep["findings"].([]any)
				if len(findings) == 0 || findings[0].(map[string]any)["rule"] != c.rule {
					t.Errorf("%s: report %v, want first finding %s", c.name, m["report"], c.rule)
				}
			}
			continue
		}
		if m["mode"] != c.mode || m["output"] != "42\n" {
			t.Errorf("%s: mode %v output %q, want %s and 42", c.name, m["mode"], m["output"], c.mode)
		}
		if got := math.Float64frombits(threshold.Load()); got != c.threshold {
			t.Errorf("%s: run threshold %v, want %v", c.name, got, c.threshold)
		}
	}
}

func TestRunEndpointTimeout(t *testing.T) {
	srv, _ := newTestServer(t, serve.Config{Workers: 1})
	body := `{"source":"class Main { static void main() { int i = 0; while (0 < 1) { i = i + 1; } } }","timeoutMs":50}`
	resp, m := postRun(t, srv.URL, body)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Errorf("status %d, want 504 (%v)", resp.StatusCode, m)
	}
}

func TestStatsAndHealthEndpoints(t *testing.T) {
	srv, _ := newTestServer(t, serve.Config{Workers: 3})
	if _, m := postRun(t, srv.URL, `{"workload":"raytrace","mode":"plain"}`); m["output"] == "" {
		t.Fatal("run failed")
	}

	resp, err := http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap serve.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Completed != 1 || snap.Global.Instrs == 0 {
		t.Errorf("stats: completed=%d instrs=%d", snap.Completed, snap.Global.Instrs)
	}
	if _, ok := snap.PerProgram["raytrace"]; !ok {
		t.Errorf("stats missing per-program entry: %v", snap.PerProgram)
	}

	hresp, err := http.Get(srv.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	var h map[string]any
	if err := json.NewDecoder(hresp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h["status"] != "ok" || h["workers"].(float64) != 3 {
		t.Errorf("healthz: %v", h)
	}
}

func getJSON(t *testing.T, url string) (*http.Response, map[string]any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	return resp, m
}

func TestReadyzHealthy(t *testing.T) {
	srv, _ := newTestServer(t, serve.Config{Workers: 2})
	resp, m := getJSON(t, srv.URL+"/v1/readyz")
	if resp.StatusCode != http.StatusOK || m["status"] != "healthy" {
		t.Errorf("readyz: status %d, body %v", resp.StatusCode, m)
	}
}

func TestReadyzDegradedByQuarantine(t *testing.T) {
	srv, _ := newTestServer(t, serve.Config{
		Workers:         1,
		QuarantineAfter: 1,
		Injector: serve.InjectorFuncs{
			Exec: func(req serve.Request) {
				if req.Workload == "compress" {
					panic("injected")
				}
			},
		},
	})
	// One panic quarantines the program and degrades readiness.
	postRun(t, srv.URL, `{"workload":"compress","mode":"plain"}`)
	resp, m := getJSON(t, srv.URL+"/v1/readyz")
	if resp.StatusCode != http.StatusOK || m["status"] != "degraded" {
		t.Errorf("readyz after quarantine: status %d, body %v", resp.StatusCode, m)
	}
	if m["quarantinedPrograms"].(float64) != 1 {
		t.Errorf("quarantinedPrograms = %v, want 1", m["quarantinedPrograms"])
	}
	// The quarantined program gets HTTP 423 Locked.
	hresp, em := postRun(t, srv.URL, `{"workload":"compress","mode":"plain"}`)
	if hresp.StatusCode != http.StatusLocked {
		t.Errorf("quarantined run: status %d, want 423 (%v)", hresp.StatusCode, em)
	}
}

// calmLoop is an inline program whose runs churn far below the mode
// controller's storm threshold.
const calmLoop = `{"source":"class Main { static void main() { int i = 0; while (i < 2000) { i = i + 1; } Sys.printlnInt(i); } }","mode":"trace"}`

// TestReadyzDegradedByPlainArm: a signal storm that demotes a program to the
// plain arm degrades readiness, and the demoted runs answer mode "plain".
func TestReadyzDegradedByPlainArm(t *testing.T) {
	srv, _ := newTestServer(t, serve.Config{
		Workers: 1,
		Injector: serve.InjectorFuncs{
			After: func(_ serve.Request, sess *core.Session) {
				if sess.Graph != nil {
					sess.Counters.TracesBuilt += 10000
				}
			},
		},
	})
	for i := 0; i < 3; i++ {
		if _, m := postRun(t, srv.URL, calmLoop); m["mode"] != "trace" {
			t.Fatalf("storm run %d answered mode %v, want trace", i, m["mode"])
		}
	}
	resp, m := getJSON(t, srv.URL+"/v1/readyz")
	if resp.StatusCode != http.StatusOK || m["status"] != "degraded" || m["plainPrograms"] != 1.0 {
		t.Errorf("readyz after a storm: status %d, body %v", resp.StatusCode, m)
	}
	if _, m := postRun(t, srv.URL, calmLoop); m["mode"] != "plain" || m["output"] != "2000\n" {
		t.Errorf("demoted run answered mode %v output %q", m["mode"], m["output"])
	}
}

// TestRunAnswersDeployMode: after three calm "trace" runs the program runs
// deployed, and the answer names the mode that ran.
func TestRunAnswersDeployMode(t *testing.T) {
	srv, _ := newTestServer(t, serve.Config{Workers: 1})
	for i, want := range []string{"trace", "trace", "trace", "trace-deploy"} {
		if _, m := postRun(t, srv.URL, calmLoop); m["mode"] != want {
			t.Errorf("run %d answered mode %v, want %s", i, m["mode"], want)
		}
	}
	resp, m := getJSON(t, srv.URL+"/v1/readyz")
	if resp.StatusCode != http.StatusOK || m["status"] != "healthy" {
		t.Errorf("readyz with a deployed program: status %d, body %v", resp.StatusCode, m)
	}
}

func TestReadyzDrainingAfterClose(t *testing.T) {
	svc := serve.New(serve.Config{Workers: 1})
	srv := httptest.NewServer(newMux(svc))
	t.Cleanup(srv.Close)
	svc.Close()
	resp, m := getJSON(t, srv.URL+"/v1/readyz")
	if resp.StatusCode != http.StatusServiceUnavailable || m["status"] != "draining" {
		t.Errorf("readyz after close: status %d, body %v", resp.StatusCode, m)
	}
}

func TestHTTPRunnerAndLoadgen(t *testing.T) {
	srv, svc := newTestServer(t, serve.Config{Workers: 2, QueueDepth: 16})
	l := &replay.Log{}
	for i := 0; i < 6; i++ {
		l.Records = append(l.Records, replay.Record{
			Kind: replay.RefWorkload, Workload: []string{"soot", "raytrace"}[i%2], Mode: core.ModePlain,
		})
	}
	run := httpRunner(srv.Client(), srv.URL)
	var instrs atomic.Int64
	res, err := replay.Play(context.Background(), l, replay.PlayOptions{MaxInFlight: 3},
		func(ctx context.Context, rec replay.Record) error {
			resp, err := run(ctx, serve.RequestFromRecord(rec))
			if err == nil {
				instrs.Add(resp.Counters.Instrs)
			}
			return err
		})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 6 || res.Failed != 0 {
		t.Fatalf("replay over HTTP: %+v", res)
	}
	if instrs.Load() == 0 {
		t.Error("httpRunner did not propagate instruction counts")
	}
	if snap := svc.Stats(); snap.Completed != 6 {
		t.Errorf("daemon accounted %d completions, want 6", snap.Completed)
	}
}

// TestHTTPRunnerReplaysDeployRecords: a log recorded from a deployment-mode
// request (an embedded service records the mode as submitted) replays
// against the daemon as trace requests, not as a wire mode it refuses.
func TestHTTPRunnerReplaysDeployRecords(t *testing.T) {
	srv, _ := newTestServer(t, serve.Config{Workers: 1, QueueDepth: 4})
	l := &replay.Log{}
	for i := 0; i < 4; i++ {
		l.Records = append(l.Records, replay.Record{
			Kind: replay.RefMiniJava, Mode: core.ModeTraceDeploy,
			Source: `class Main { static void main() { int s = 0; int i = 0; while (i < 2000) { s = s + i; i = i + 1; } Sys.printlnInt(s); } }`,
		})
	}
	run := httpRunner(srv.Client(), srv.URL)
	res, err := replay.Play(context.Background(), l, replay.PlayOptions{MaxInFlight: 1},
		func(ctx context.Context, rec replay.Record) error {
			_, err := run(ctx, serve.RequestFromRecord(rec))
			return err
		})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 4 || res.Failed != 0 {
		t.Fatalf("deploy records over HTTP: %+v", res)
	}
}

func TestGracefulShutdown(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	svc := serve.New(serve.Config{Workers: 1})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- serveListener(ctx, l, svc, 5*time.Second) }()

	url := "http://" + l.Addr().String()
	resp, err := http.Post(url+"/v1/run", "application/json",
		bytes.NewReader([]byte(`{"workload":"soot","mode":"plain"}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pre-shutdown run: status %d", resp.StatusCode)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server did not shut down")
	}
	// The drained service refuses new work.
	if _, err := svc.Do(context.Background(), serve.Request{Workload: "soot"}); err == nil {
		t.Error("service accepted work after drain")
	}
}

// TestParseModeWireNames: the four client-chosen modes parse, the empty
// mode means trace, and deployment mode is not a wire name.
func TestParseModeWireNames(t *testing.T) {
	if len(api.ModeNames) != 4 {
		t.Errorf("ModeNames = %v, want plain, instr, profile, trace", api.ModeNames)
	}
	for name, want := range api.ModeNames {
		got, err := api.ParseMode(name)
		if err != nil || got != want {
			t.Errorf("ParseMode(%q) = %v, %v", name, got, err)
		}
	}
	if m, err := api.ParseMode(""); err != nil || m != core.ModeTrace {
		t.Errorf("default mode = %v, %v", m, err)
	}
	for _, name := range []string{"warp", "trace-deploy"} {
		if _, err := api.ParseMode(name); err == nil {
			t.Errorf("ParseMode(%s) succeeded", name)
		}
	}
}

func TestRunEndpointVerifierRejection(t *testing.T) {
	srv, svc := newTestServer(t, serve.Config{Workers: 1})

	// Reads a local never written: runs fine on the zero-initializing VM,
	// but the verifier must refuse it with a structured report.
	src := ".class Main\n.method static main ( ) void\n    .locals 1\n    iload 0\n    pop\n    return\n.end\n.end\n.entry Main main\n"
	body, _ := json.Marshal(map[string]string{"source": src, "kind": "jasm"})
	resp, m := postRun(t, srv.URL, string(body))
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, want 422: %v", resp.StatusCode, m)
	}
	rep, ok := m["report"].(map[string]any)
	if !ok {
		t.Fatalf("no structured report in 422 body: %v", m)
	}
	findings, ok := rep["findings"].([]any)
	if !ok || len(findings) == 0 {
		t.Fatalf("report has no findings: %v", m)
	}
	first := findings[0].(map[string]any)
	if first["rule"] != "uninit-local" {
		t.Fatalf("rule = %v, want uninit-local", first["rule"])
	}
	if first["method"] != "Main.main" {
		t.Fatalf("method = %v, want Main.main", first["method"])
	}
	if snap := svc.Stats(); snap.ProgramsRejected != 1 {
		t.Errorf("ProgramsRejected = %d, want 1", snap.ProgramsRejected)
	}
}

func TestRunEndpointCompileErrorHasNoReport(t *testing.T) {
	srv, _ := newTestServer(t, serve.Config{Workers: 1})
	resp, m := postRun(t, srv.URL, `{"source":"class {","kind":"minijava"}`)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, want 422: %v", resp.StatusCode, m)
	}
	if _, present := m["report"]; present {
		t.Fatalf("plain compile error carries a verifier report: %v", m)
	}
}
