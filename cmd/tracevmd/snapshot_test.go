package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"repro/internal/api"
	"repro/internal/serve"
	"repro/internal/snapshot"
)

func doReq(t *testing.T, method, url string, body []byte) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

// TestSnapshotEndpointsDisabled: without -snapshot-dir both verbs 404.
func TestSnapshotEndpointsDisabled(t *testing.T) {
	srv, _ := newTestServer(t, serve.Config{Workers: 1})
	for _, method := range []string{"GET", "PUT"} {
		resp, _ := doReq(t, method, srv.URL+"/v1/snapshot?workload=soot", nil)
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s with persistence disabled: status %d, want 404", method, resp.StatusCode)
		}
	}
}

// TestSnapshotEndpointRoundTrip: run a program, download its learned
// profile, upload it into a second, fresh daemon, and confirm that daemon
// warm-starts its first run of the program — the profile-shipping path.
func TestSnapshotEndpointRoundTrip(t *testing.T) {
	srv, _ := newTestServer(t, serve.Config{Workers: 1, SnapshotDir: t.TempDir()})
	fresh, _ := newTestServer(t, serve.Config{Workers: 1, SnapshotDir: t.TempDir()})

	var cold api.RunResponse
	resp, body := doReq(t, "POST", srv.URL+"/v1/run", []byte(`{"workload":"soot","mode":"trace"}`))
	if err := json.Unmarshal(body, &cold); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("seed run: status %d, err %v", resp.StatusCode, err)
	}

	// Download by workload name.
	resp, data := doReq(t, "GET", srv.URL+"/v1/snapshot?workload=soot", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET snapshot: status %d (%s)", resp.StatusCode, data)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "octet-stream") {
		t.Errorf("content type %q", ct)
	}
	if got := resp.Header.Get("X-Tracevm-Schema"); got != snapshot.Schema {
		t.Errorf("schema header %q, want %q", got, snapshot.Schema)
	}
	snap, err := snapshot.Decode(data)
	if err != nil {
		t.Fatalf("downloaded snapshot does not decode: %v", err)
	}
	if err := snap.VerifyKey(cold.Key); err != nil {
		t.Errorf("downloaded snapshot keyed wrong: %v", err)
	}
	if len(snap.Nodes) == 0 {
		t.Error("downloaded snapshot carries no nodes")
	}

	// Download by key is the same bytes.
	resp, byKey := doReq(t, "GET", srv.URL+"/v1/snapshot?key="+cold.Key, nil)
	if resp.StatusCode != http.StatusOK || !bytes.Equal(byKey, data) {
		t.Errorf("by-key download differs: status %d, %d vs %d bytes", resp.StatusCode, len(byKey), len(data))
	}

	// Upload it into the fresh daemon.
	resp, body = doReq(t, "PUT", fresh.URL+"/v1/snapshot", data)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("PUT snapshot: status %d (%s)", resp.StatusCode, body)
	}
	var info api.SnapshotInfoResponse
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	if info.Schema != api.SchemaSnapshotInfo || info.Key != cold.Key || info.Nodes != len(snap.Nodes) {
		t.Errorf("install info = %+v", info)
	}

	// The fresh daemon's first run of the program is seeded.
	var warm api.RunResponse
	resp, body = doReq(t, "POST", fresh.URL+"/v1/run", []byte(`{"workload":"soot","mode":"trace"}`))
	if err := json.Unmarshal(body, &warm); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("warm run: status %d, err %v", resp.StatusCode, err)
	}
	if warm.Counters.SnapshotsLoaded != 1 || warm.Counters.NodesSeededFromSnapshot == 0 {
		t.Errorf("warm run not seeded: loaded=%d seeded=%d",
			warm.Counters.SnapshotsLoaded, warm.Counters.NodesSeededFromSnapshot)
	}
}

// TestSnapshotEndpointErrors covers the refusal paths: bad query, unknown
// workload, nothing stored, garbage upload.
func TestSnapshotEndpointErrors(t *testing.T) {
	srv, _ := newTestServer(t, serve.Config{Workers: 1, SnapshotDir: t.TempDir()})

	resp, _ := doReq(t, "GET", srv.URL+"/v1/snapshot", nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("no query: status %d, want 400", resp.StatusCode)
	}
	resp, _ = doReq(t, "GET", srv.URL+"/v1/snapshot?workload=nope", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown workload: status %d, want 404", resp.StatusCode)
	}
	resp, _ = doReq(t, "GET", srv.URL+"/v1/snapshot?key=feedface00000000", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unstored key: status %d, want 404", resp.StatusCode)
	}
	resp, body := doReq(t, "PUT", srv.URL+"/v1/snapshot", []byte("not a snapshot"))
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("garbage upload: status %d (%s), want 422", resp.StatusCode, body)
	}
	var e api.ErrorResponse
	if err := json.Unmarshal(body, &e); err != nil || e.Schema != api.SchemaError {
		t.Errorf("garbage upload error body: %s", body)
	}
}
