package main

import (
	"bytes"
	"context"
	"encoding/json"
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
	srv, _ := newTestServer(t, serve.Config{Workers: 1})

	cases := []struct {
		name, body string
		status     int
	}{
		{"bad json", `{`, http.StatusBadRequest},
		{"bad mode", `{"workload":"soot","mode":"warp"}`, http.StatusBadRequest},
		{"bad kind", `{"source":"x","kind":"cobol"}`, http.StatusBadRequest},
		{"no program", `{}`, http.StatusUnprocessableEntity},
		{"compile error", `{"source":"class {"}`, http.StatusUnprocessableEntity},
		{"run trap", `{"source":"class Main { static void main() { Sys.printlnInt(1/0); } }"}`, http.StatusUnprocessableEntity},
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

func TestParseModeAllFive(t *testing.T) {
	for name, want := range api.ModeNames {
		got, err := api.ParseMode(name)
		if err != nil || got != want {
			t.Errorf("ParseMode(%q) = %v, %v", name, got, err)
		}
	}
	if m, err := api.ParseMode(""); err != nil || m != core.ModeTrace {
		t.Errorf("default mode = %v, %v", m, err)
	}
	if _, err := api.ParseMode("warp"); err == nil {
		t.Error("ParseMode(warp) succeeded")
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

func TestRunEndpointNoVerify(t *testing.T) {
	srv, _ := newTestServer(t, serve.Config{Workers: 1, NoVerify: true})
	src := ".class Main\n.method static main ( ) void\n    .locals 1\n    iload 0\n    invokestatic Main.print\n    return\n.end\n.native static print ( int ) void println_int\n.end\n.entry Main main\n"
	body, _ := json.Marshal(map[string]string{"source": src, "kind": "jasm"})
	resp, m := postRun(t, srv.URL, string(body))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200 with -no-verify: %v", resp.StatusCode, m)
	}
	if m["output"] != "0\n" {
		t.Fatalf("output = %v, want 0", m["output"])
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
