// Command tracevmd serves the trace-cache virtual machine: a long-lived
// daemon that executes many programs concurrently over a shared program
// registry, with aggregated metrics and an event trace. It is the
// operational face of internal/serve; the wire contract lives in
// internal/api.
//
// Server:
//
//	tracevmd -addr :8077 -workers 8 -queue 64 -timeout 30s \
//	         -max-traces 512 -max-trace-blocks 8192 \
//	         -breaker-churn 8 -breaker-after 3 -breaker-cooldown 30s \
//	         -quarantine-after 3 -events 4096 -debug-addr localhost:8078 \
//	         -snapshot-dir /var/lib/tracevm/snapshots -snapshot-interval 30s
//
// Endpoints (all under /v1/):
//
//	POST /v1/run     {"workload":"compress","mode":"trace"} or
//	                 {"source":"class Main {...}","kind":"minijava",...}
//	GET  /v1/stats   aggregated service + execution metrics snapshot
//	GET  /v1/traces  per-program live trace inventory: tier, guard split,
//	                 compiled-dispatch share (sharded profiling only)
//	GET  /v1/metrics Prometheus text exposition of the same snapshot
//	GET  /v1/events  JSON tail of the event ring (?n=256&type=breaker&program=x)
//	GET  /v1/snapshot?workload=x (or ?key=h) learned-profile snapshot download
//	PUT  /v1/snapshot binary snapshot upload: pre-warm a program before traffic
//	GET  /v1/healthz liveness plus queue depth
//	GET  /v1/readyz  readiness: healthy / degraded (200), draining (503)
//
// -debug-addr serves net/http/pprof on a separate listener so profiling
// endpoints never share the public address.
//
// Traffic record/replay (tracevm/replay/v1 logs, see internal/replay):
//
//	tracevmd -addr :8077 -record /var/lib/tracevm/traffic      # record; commit at drain
//	tracevmd -replay storm.trlog -addr localhost:8077 -replay-pace 1
//
// -record captures every submission the server is offered (including
// backpressure-refused requests) and commits a timestamped .trlog into the
// directory at drain. -replay re-offers a log against a running daemon with
// -replay-pace scaling the recorded arrival gaps (1 as recorded, 0 max
// speed) and -replay-inflight bounding outstanding requests, then exits
// non-zero if any replayed request failed.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/analysis"
	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/replay"
	"repro/internal/serve"
	"repro/internal/snapshot"
)

func main() {
	var (
		addr      = flag.String("addr", ":8077", "listen address (server) or daemon address (-replay)")
		debugAddr = flag.String("debug-addr", "", "separate listen address for net/http/pprof (empty = disabled)")
		workers   = flag.Int("workers", 0, "concurrent session workers (0 = GOMAXPROCS)")
		queue     = flag.Int("queue", 0, "pending request queue depth (0 = 4x workers)")
		timeout   = flag.Duration("timeout", 0, "default per-request timeout (0 = none)")
		maxSteps  = flag.Int64("maxsteps", 0, "hard per-request instruction cap (0 = unlimited)")
		events    = flag.Int("events", 4096, "event trace ring capacity (0 = disabled)")

		maxTraces   = flag.Int("max-traces", 512, "per-session live trace budget (0 = unbounded)")
		maxTrBlocks = flag.Int("max-trace-blocks", 8192, "per-session cached trace block budget (0 = unbounded)")
		compileTr   = flag.Bool("compile-traces", false, "enable tier-2 execution: hot traces compile to superinstruction form")
		tierUp      = flag.Int64("tier-up", 0, "trace dispatch count that promotes a hot trace to its compiled form (0 = 16 default)")
		tierDown    = flag.Int64("tier-down", 0, "compiled guard-exit count that demotes a trace back to tier 1 (0 = 8 default)")
		brkChurn    = flag.Float64("breaker-churn", 8, "churn breaker threshold in trace build+retire events per 1k dispatches (0 = disabled)")
		brkAfter    = flag.Int("breaker-after", 3, "consecutive churny runs before the breaker opens")
		brkCooldown = flag.Duration("breaker-cooldown", 30*time.Second, "how long an open breaker demotes a program before probing")
		quarAfter   = flag.Int("quarantine-after", 3, "VM panics before a program is quarantined (-1 = disabled)")
		noVerify    = flag.Bool("no-verify", false, "skip bytecode verification of submitted sources")

		snapDir      = flag.String("snapshot-dir", "", "profile snapshot directory; warm-starts known programs and persists learned state (empty = disabled)")
		snapInterval = flag.Duration("snapshot-interval", 0, "coalescing snapshot writer commit period (0 = 30s default)")
		snapNet      = flag.Int64("snapshot-net", 0, "per-program learning delta that forces an early snapshot commit (0 = 512 default)")

		recordDir  = flag.String("record", "", "server: record every submission and commit the traffic log to this directory at shutdown")
		replayFile = flag.String("replay", "", "replay the traffic log at this path against the daemon at -addr, then exit")
		replayPace = flag.Float64("replay-pace", 1, "replay: arrival-gap multiplier (1 = as recorded, 0 = max speed, 0.5 = double speed)")
		replayConc = flag.Int("replay-inflight", 0, "replay: max concurrently outstanding requests (0 = 16 default)")
	)
	flag.Parse()

	var err error
	switch {
	case *replayFile != "":
		err = runReplay(*addr, *replayFile, *replayPace, *replayConc)
	default:
		err = runServer(*addr, *debugAddr, *recordDir, serve.Config{
			Workers:        *workers,
			QueueDepth:     *queue,
			DefaultTimeout: *timeout,
			MaxSteps:       *maxSteps,
			EventTrace:     *events,
			TraceCache: core.Config{
				MaxTraces:          *maxTraces,
				MaxCachedBlocks:    *maxTrBlocks,
				CompileTraces:      *compileTr,
				TierUpDispatches:   *tierUp,
				TierDownGuardExits: *tierDown,
			},
			Breaker: serve.BreakerConfig{
				ChurnPerK: *brkChurn,
				TripAfter: *brkAfter,
				Cooldown:  *brkCooldown,
			},
			QuarantineAfter:  *quarAfter,
			NoVerify:         *noVerify,
			SnapshotDir:      *snapDir,
			SnapshotInterval: *snapInterval,
			SnapshotNet:      *snapNet,
		})
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "tracevmd: %v\n", err)
		os.Exit(1)
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// newMux builds the daemon's HTTP surface over a service.
func newMux(svc *serve.Service) *http.ServeMux {
	mux := http.NewServeMux()

	mux.HandleFunc("POST /v1/run", func(w http.ResponseWriter, r *http.Request) {
		var wire api.RunRequest
		if err := readRunRequest(w, r, &wire); err != nil {
			writeJSON(w, http.StatusBadRequest, api.NewError(err.Error()))
			return
		}
		req, err := wire.ToServe()
		if err != nil {
			writeJSON(w, http.StatusBadRequest, api.NewError(err.Error()))
			return
		}
		resp, err := svc.Do(r.Context(), req)
		if err != nil {
			switch {
			case errors.Is(err, serve.ErrQueueFull):
				w.Header().Set("Retry-After", "1")
				writeJSON(w, http.StatusTooManyRequests, api.NewError(err.Error()))
			case errors.Is(err, serve.ErrQuarantined):
				// The program is locked out until the daemon restarts.
				writeJSON(w, http.StatusLocked, api.NewError(err.Error()))
			case errors.Is(err, serve.ErrClosed):
				writeJSON(w, http.StatusServiceUnavailable, api.NewError(err.Error()))
			case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
				writeJSON(w, http.StatusGatewayTimeout, api.NewError(err.Error()))
			default:
				// Compile and runtime errors are the client's fault. A
				// verifier rejection additionally ships the structured
				// report so clients can point at the offending instruction.
				e := api.NewError(err.Error())
				var verr *analysis.VerifyError
				if errors.As(err, &verr) {
					e.Report = verr.Report
				}
				writeJSON(w, http.StatusUnprocessableEntity, e)
			}
			return
		}
		writeJSON(w, http.StatusOK, api.RunResponseFrom(resp))
	})

	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, api.StatsResponse{
			Schema:   api.SchemaStats,
			Snapshot: svc.Stats(),
		})
	})

	mux.HandleFunc("GET /v1/traces", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, api.TracesResponseFrom(svc.TraceInventory()))
	})

	mux.HandleFunc("GET /v1/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = api.WriteMetrics(w, svc.Stats())
	})

	mux.HandleFunc("GET /v1/events", func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		n := 256
		if s := q.Get("n"); s != "" {
			v, err := strconv.Atoi(s)
			if err != nil || v < 1 {
				writeJSON(w, http.StatusBadRequest, api.NewError("bad n: want a positive integer"))
				return
			}
			n = v
		}
		typ := obs.EvNone // all types
		if s := q.Get("type"); s != "" {
			t, ok := obs.ParseEventType(s)
			if !ok {
				writeJSON(w, http.StatusBadRequest, api.NewError(
					"unknown event type "+strconv.Quote(s)+" (one of "+strings.Join(obs.EventTypeNames(), ", ")+")"))
				return
			}
			typ = t
		}
		evs := svc.Events(n, typ, q.Get("program"))
		if evs == nil {
			evs = []obs.Event{}
		}
		resp := api.EventsResponse{Schema: api.SchemaEvents, Events: evs}
		if ring := svc.EventRing(); ring != nil {
			resp.Total = ring.Total()
			resp.Held = ring.Len()
			resp.Cap = ring.Cap()
		}
		writeJSON(w, http.StatusOK, resp)
	})

	// GET /v1/snapshot?workload=<name> (or ?key=<hash>) downloads the
	// program's learned-profile snapshot in its binary format; PUT uploads
	// one, pre-warming the program for every later request of the same
	// content hash. Both 404 the feature off when -snapshot-dir is unset.
	mux.HandleFunc("GET /v1/snapshot", func(w http.ResponseWriter, r *http.Request) {
		if !svc.SnapshotEnabled() {
			writeJSON(w, http.StatusNotFound, api.NewError("snapshot persistence disabled (start with -snapshot-dir)"))
			return
		}
		q := r.URL.Query()
		key := q.Get("key")
		if wl := q.Get("workload"); key == "" && wl != "" {
			comp, err := svc.Registry().Workload(wl)
			if err != nil {
				writeJSON(w, http.StatusNotFound, api.NewError(err.Error()))
				return
			}
			key = comp.Key
		}
		if key == "" {
			writeJSON(w, http.StatusBadRequest, api.NewError("need ?workload= or ?key="))
			return
		}
		data, ok := svc.SnapshotBytes(key)
		if !ok {
			writeJSON(w, http.StatusNotFound, api.NewError("no snapshot stored for "+strconv.Quote(key)))
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("X-Tracevm-Schema", snapshot.Schema)
		_, _ = w.Write(data)
	})

	mux.HandleFunc("PUT /v1/snapshot", func(w http.ResponseWriter, r *http.Request) {
		if !svc.SnapshotEnabled() {
			writeJSON(w, http.StatusNotFound, api.NewError("snapshot persistence disabled (start with -snapshot-dir)"))
			return
		}
		data, err := io.ReadAll(io.LimitReader(r.Body, 32<<20))
		if err != nil {
			writeJSON(w, http.StatusBadRequest, api.NewError("reading body: "+err.Error()))
			return
		}
		snap, err := svc.InstallSnapshot(data)
		if err != nil {
			writeJSON(w, http.StatusUnprocessableEntity, api.NewError(err.Error()))
			return
		}
		writeJSON(w, http.StatusOK, api.SnapshotInfoResponse{
			Schema:  api.SchemaSnapshotInfo,
			Program: snap.Program,
			Key:     snap.ProgramKey,
			Nodes:   len(snap.Nodes),
			Traces:  len(snap.Traces),
		})
	})

	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		snap := svc.Stats()
		writeJSON(w, http.StatusOK, api.HealthResponse{
			Schema:     api.SchemaHealth,
			Status:     "ok",
			Workers:    snap.Workers,
			QueueDepth: snap.QueueDepth,
		})
	})

	mux.HandleFunc("GET /v1/readyz", func(w http.ResponseWriter, r *http.Request) {
		code, body := readiness(svc.Stats())
		writeJSON(w, code, body)
	})

	return mux
}

const (
	// maxRunBody caps a POST /v1/run body; a larger one answers 400.
	maxRunBody = 1 << 20
	// maxPooledBody caps the buffers runBodies keeps, so one huge request
	// does not pin its buffer for the daemon's lifetime.
	maxPooledBody = 64 << 10
)

// runBodies recycles POST /v1/run body buffers across requests.
var runBodies = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// readRunRequest reads the request body once into a pooled buffer and
// decodes it in place. DecodeRunRequest copies every string it keeps, so
// the buffer goes back to the pool as soon as the decode returns.
func readRunRequest(w http.ResponseWriter, r *http.Request, wire *api.RunRequest) error {
	buf := runBodies.Get().(*bytes.Buffer)
	defer func() {
		if buf.Cap() <= maxPooledBody {
			runBodies.Put(buf)
		}
	}()
	buf.Reset()
	if n := r.ContentLength; n > 0 && n <= maxRunBody {
		// MinRead more, so the read that sees EOF does not grow it again.
		buf.Grow(int(n) + bytes.MinRead)
	}
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxRunBody)); err != nil {
		return fmt.Errorf("reading body: %w", err)
	}
	if err := api.DecodeRunRequest(buf.Bytes(), wire); err != nil {
		return fmt.Errorf("bad JSON: %w", err)
	}
	return nil
}

// newDebugMux serves net/http/pprof explicitly (no DefaultServeMux
// registration side effects).
func newDebugMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// readiness classifies the service for orchestrators: "healthy" and
// "degraded" both accept traffic (200); "draining" tells the balancer to
// stop sending (503). Degraded means the service is up but some governor
// has engaged — open breakers, quarantined programs, or a queue running at
// three quarters of capacity.
func readiness(snap serve.Snapshot) (int, api.ReadyResponse) {
	status := "healthy"
	code := http.StatusOK
	switch {
	case snap.Draining:
		status, code = "draining", http.StatusServiceUnavailable
	case snap.OpenBreakers > 0 || snap.QuarantinedPrograms > 0 ||
		(snap.QueueCap > 0 && snap.QueueDepth*4 >= snap.QueueCap*3):
		status = "degraded"
	}
	return code, api.ReadyResponse{
		Schema:              api.SchemaReady,
		Status:              status,
		QueueDepth:          snap.QueueDepth,
		QueueCap:            snap.QueueCap,
		OpenBreakers:        snap.OpenBreakers,
		HalfOpenBreakers:    snap.HalfOpenBreakers,
		QuarantinedPrograms: snap.QuarantinedPrograms,
	}
}

// serveListener runs the HTTP server on l until ctx is cancelled, then
// drains: in-flight HTTP requests get up to grace to finish, and the
// execution service finishes queued work before Close returns.
func serveListener(ctx context.Context, l net.Listener, svc *serve.Service, grace time.Duration) error {
	srv := &http.Server{
		Handler: newMux(svc),
		// A client that trickles its headers or body must not pin a
		// connection forever (slowloris); execution time is governed by the
		// service's own deadlines, not the HTTP read window, so reads are
		// bounded generously and idle keep-alives are reaped.
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       2 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(l) }()
	select {
	case err := <-errc:
		svc.Close()
		return err
	case <-ctx.Done():
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), grace)
	defer cancel()
	err := srv.Shutdown(shutdownCtx)
	svc.Close()
	if err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	return nil
}

func runServer(addr, debugAddr, recordDir string, cfg serve.Config) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	if debugAddr != "" {
		dl, err := net.Listen("tcp", debugAddr)
		if err != nil {
			return fmt.Errorf("debug listener: %w", err)
		}
		dsrv := &http.Server{
			Handler:           newDebugMux(),
			ReadHeaderTimeout: 10 * time.Second,
			ReadTimeout:       2 * time.Minute,
			IdleTimeout:       2 * time.Minute,
		}
		go func() { _ = dsrv.Serve(dl) }()
		defer dsrv.Close()
		fmt.Fprintf(os.Stderr, "tracevmd: pprof on %s\n", dl.Addr())
	}
	var rec *replay.Recorder
	if recordDir != "" {
		if err := os.MkdirAll(recordDir, 0o755); err != nil {
			return fmt.Errorf("record dir: %w", err)
		}
		rec = replay.NewRecorder()
		cfg.Recorder = rec
	}
	svc := serve.New(cfg)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	fmt.Fprintf(os.Stderr, "tracevmd: serving on %s\n", l.Addr())
	if err := serveListener(ctx, l, svc, 30*time.Second); err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	if rec != nil && rec.Len() > 0 {
		path := filepath.Join(recordDir,
			"traffic-"+time.Now().UTC().Format("20060102T150405Z")+replay.FileExt)
		if err := rec.Save(path); err != nil {
			return fmt.Errorf("saving traffic log: %w", err)
		}
		fmt.Fprintf(os.Stderr, "tracevmd: recorded %d requests to %s\n", rec.Len(), path)
	}
	return nil
}

// runReplay re-offers a recorded traffic log against a running daemon, the
// client-side mirror of serve.(*Service).Replay.
func runReplay(addr, path string, pace float64, inflight int) error {
	l, err := replay.Load(path)
	if err != nil {
		return err
	}
	baseURL := addr
	if !strings.Contains(baseURL, "://") {
		baseURL = "http://" + baseURL
	}
	baseURL = strings.TrimSuffix(baseURL, "/")
	run := httpRunner(http.DefaultClient, baseURL)
	fmt.Fprintf(os.Stderr, "tracevmd: replaying %d requests (%d programs, recorded span %v) against %s\n",
		len(l.Records), len(l.Programs()), l.Duration().Round(time.Millisecond), baseURL)
	res, err := replay.Play(context.Background(), l, replay.PlayOptions{Scale: pace, MaxInFlight: inflight},
		func(ctx context.Context, rec replay.Record) error {
			_, rerr := run(ctx, serve.RequestFromRecord(rec))
			return rerr
		})
	if err != nil {
		return err
	}
	fmt.Printf("submitted:   %d\n", res.Submitted)
	fmt.Printf("completed:   %d\n", res.Completed)
	fmt.Printf("failed:      %d\n", res.Failed)
	fmt.Printf("wall:        %v\n", res.Wall.Round(time.Millisecond))
	for _, e := range res.Errors {
		fmt.Printf("error:       %s\n", e)
	}
	if res.Failed > 0 {
		return fmt.Errorf("%d of %d replayed requests failed", res.Failed, res.Submitted)
	}
	return nil
}

// httpRunner adapts POST /v1/run into a serve.Runner, so a log replays
// against a remote daemon exactly as Service.Replay plays it in process.
func httpRunner(client *http.Client, baseURL string) serve.Runner {
	return func(ctx context.Context, req serve.Request) (*serve.Response, error) {
		wire := api.RunRequest{
			Workload:  req.Workload,
			Source:    req.Source,
			Mode:      req.Mode.String(),
			Threshold: req.Threshold,
			Delay:     req.StartDelay,
			Decay:     req.DecayInterval,
			MaxSteps:  req.MaxSteps,
			TimeoutMs: req.Timeout.Milliseconds(),
		}
		if req.Kind == serve.KindJasm {
			wire.Kind = "jasm"
		}
		body, err := json.Marshal(wire)
		if err != nil {
			return nil, err
		}
		hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, baseURL+"/v1/run", bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		hreq.Header.Set("Content-Type", "application/json")
		hresp, err := client.Do(hreq)
		if err != nil {
			return nil, err
		}
		defer hresp.Body.Close()
		if hresp.StatusCode == http.StatusTooManyRequests {
			_, _ = io.Copy(io.Discard, hresp.Body)
			return nil, serve.ErrQueueFull
		}
		if hresp.StatusCode != http.StatusOK {
			var e api.ErrorResponse
			_ = json.NewDecoder(hresp.Body).Decode(&e)
			return nil, fmt.Errorf("HTTP %d: %s", hresp.StatusCode, e.Error)
		}
		var wireResp api.RunResponse
		if err := json.NewDecoder(hresp.Body).Decode(&wireResp); err != nil {
			return nil, err
		}
		return &serve.Response{
			Output:   wireResp.Output,
			Counters: wireResp.Counters,
		}, nil
	}
}
