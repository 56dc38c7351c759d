package main

// Supervisor crash-recovery tests: these build the real daemon binary, drive
// it over HTTP with the committed storm fixture, kill it without warning
// mid-storm, restart it against the same state directory, and assert the
// restarted daemon recovers — readiness green, profiles warm-seeded from the
// snapshots the dead process committed, and a full replay reproducing the
// crash-free run's per-program counters. They are the closest thing in the
// tree to an operator's actual bad day.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/faultinject/crash"
	"repro/internal/replay"
	"repro/internal/serve"
	"repro/internal/stats"
)

// daemonBin builds the tracevmd binary once per test-process and returns its
// path. The binary outlives any single test, so it lives in its own temp dir
// removed by the last finished test's cleanup via reference counting — or,
// simpler, leaked to the OS temp cleaner; `go test` already leaves per-run
// build artifacts there.
var daemonBin = sync.OnceValues(func() (string, error) {
	dir, err := os.MkdirTemp("", "tracevmd-crash-*")
	if err != nil {
		return "", err
	}
	bin := filepath.Join(dir, "tracevmd")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building daemon: %v\n%s", err, out)
	}
	return bin, nil
})

// daemon is one spawned tracevmd process under test supervision.
type daemon struct {
	cmd    *exec.Cmd
	url    string // http://127.0.0.1:<port>
	stderr *bytes.Buffer
	mu     sync.Mutex
	waited bool
	werr   error
}

// startDaemon launches the built binary on an ephemeral port and blocks until
// it reports its listen address on stderr. extraEnv entries are appended to
// the inherited environment (used to arm crash points in the child).
func startDaemon(t *testing.T, extraEnv []string, args ...string) *daemon {
	t.Helper()
	bin, err := daemonBin()
	if err != nil {
		t.Fatal(err)
	}
	d := &daemon{stderr: &bytes.Buffer{}}
	d.cmd = exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	d.cmd.Env = append(os.Environ(), extraEnv...)
	pipe, err := d.cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := d.cmd.Start(); err != nil {
		t.Fatal(err)
	}

	addrc := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(pipe)
		for sc.Scan() {
			line := sc.Text()
			d.mu.Lock()
			d.stderr.WriteString(line + "\n")
			d.mu.Unlock()
			if rest, ok := strings.CutPrefix(line, "tracevmd: serving on "); ok {
				select {
				case addrc <- strings.TrimSpace(rest):
				default:
				}
			}
		}
	}()

	t.Cleanup(func() {
		d.kill()
		d.saveArtifact(t)
	})

	select {
	case addr := <-addrc:
		d.url = "http://" + addr
	case <-time.After(30 * time.Second):
		d.kill()
		t.Fatalf("daemon never reported its listen address; stderr:\n%s", d.stderrText())
	}
	return d
}

func (d *daemon) stderrText() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stderr.String()
}

// wait reaps the process once; repeated calls return the first result.
func (d *daemon) wait() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if !d.waited {
		d.waited = true
		d.werr = d.cmd.Wait()
	}
	return d.werr
}

// kill SIGKILLs the daemon — the power-cut primitive of these tests. Safe to
// call on an already-dead process.
func (d *daemon) kill() {
	_ = d.cmd.Process.Kill()
	_ = d.wait()
}

// shutdown stops the daemon gracefully (SIGTERM, as an orchestrator would)
// and requires a clean exit.
func (d *daemon) shutdown(t *testing.T) {
	t.Helper()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatalf("signalling daemon: %v", err)
	}
	if err := d.wait(); err != nil {
		t.Fatalf("graceful shutdown exited dirty: %v\nstderr:\n%s", err, d.stderrText())
	}
}

// saveArtifact dumps the daemon's captured stderr when the test failed and
// CI exported TRACEVM_ARTIFACT_DIR (same convention as internal/faultinject).
func (d *daemon) saveArtifact(t *testing.T) {
	if !t.Failed() {
		return
	}
	dir := os.Getenv("TRACEVM_ARTIFACT_DIR")
	if dir == "" {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Logf("artifact dir: %v", err)
		return
	}
	name := strings.ReplaceAll(t.Name(), "/", "_") + "-daemon-stderr.log"
	if err := os.WriteFile(filepath.Join(dir, name), []byte(d.stderrText()), 0o644); err != nil {
		t.Logf("artifact write: %v", err)
		return
	}
	t.Logf("wrote failure artifact %s", filepath.Join(dir, name))
}

// waitDaemonReady polls /v1/readyz until it answers 200.
func waitDaemonReady(t *testing.T, url string) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(url + "/v1/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		time.Sleep(25 * time.Millisecond)
	}
	t.Fatalf("daemon at %s never became ready", url)
}

// loadStorm loads the committed mixed-tenant fixture.
func loadStorm(t *testing.T) *replay.Log {
	t.Helper()
	l, err := replay.Load(filepath.Join("..", "..", "internal", "replay", "testdata", "storm-mixed"+replay.FileExt))
	if err != nil {
		t.Fatalf("loading committed fixture: %v", err)
	}
	return l
}

// replayStorm re-offers the log against a live daemon at max speed, bounded
// so the daemon's pool (workers 4, queue 16 in these tests) never refuses.
func replayStorm(ctx context.Context, url string, l *replay.Log) (replay.PlayResult, error) {
	run := httpRunner(http.DefaultClient, url)
	return replay.Play(ctx, l, replay.PlayOptions{Scale: 0, MaxInFlight: 12},
		func(ctx context.Context, rec replay.Record) error {
			_, err := run(ctx, serve.RequestFromRecord(rec))
			return err
		})
}

// statsBody is the slice of /v1/stats these tests compare across restarts.
type statsBody struct {
	Completed  int64
	Global     stats.Counters
	PerProgram map[string]struct {
		Runs     int64
		Counters stats.Counters
	}
}

func fetchStats(t *testing.T, url string) statsBody {
	t.Helper()
	resp, err := http.Get(url + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body statsBody
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("decoding /v1/stats: %v", err)
	}
	return body
}

// metricValue scrapes one counter/gauge from /v1/metrics.
func metricValue(t *testing.T, url, name string) float64 {
	t.Helper()
	resp, err := http.Get(url + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if err != nil {
				t.Fatalf("metric %s: unparsable value %q", name, rest)
			}
			return v
		}
	}
	t.Fatalf("metric %s not exposed", name)
	return 0
}

// perProgramInstrs reduces a stats body to the counters a deterministic
// replay must reproduce across a crash: how often each program ran and how
// many instructions those runs executed. Instrs is dispatch-invariant — a
// warm-seeded restart shifts block dispatches into trace dispatches but must
// not change what the programs computed.
func perProgramInstrs(s statsBody) map[string][2]int64 {
	out := make(map[string][2]int64, len(s.PerProgram))
	for name, p := range s.PerProgram {
		out[name] = [2]int64{p.Runs, p.Counters.Instrs}
	}
	return out
}

// daemonArgs is the shared daemon configuration of the recovery tests:
// a small fixed pool (so replay in-flight bounds are meaningful), aggressive
// snapshot commits (every learning delta forces a write — maximum exposure
// to mid-commit crashes), and persistence rooted in the given directory.
func daemonArgs(dir string) []string {
	return []string{
		"-workers", "4",
		"-queue", "16",
		"-snapshot-dir", dir,
		"-snapshot-net", "1",
		"-snapshot-interval", "100ms",
	}
}

// TestDaemonCrashRecoveryMidStorm is the headline robustness check: SIGKILL
// the daemon in the middle of a recorded mixed-tenant storm, restart it
// against the same snapshot directory, and require (a) readiness, (b) warm
// seeding from the crashed process's committed snapshots, and (c) a full
// replay of the same storm reproducing the per-program run and instruction
// counts of a daemon that never crashed.
func TestDaemonCrashRecoveryMidStorm(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and supervises real daemon processes")
	}
	storm := loadStorm(t)

	// Baseline: a crash-free daemon serving the full storm.
	base := startDaemon(t, nil, daemonArgs(t.TempDir())...)
	waitDaemonReady(t, base.url)
	res, err := replayStorm(context.Background(), base.url, storm)
	if err != nil || res.Failed > 0 {
		t.Fatalf("baseline replay: err=%v result=%+v", err, res)
	}
	want := perProgramInstrs(fetchStats(t, base.url))
	base.shutdown(t)

	// Victim: same configuration, killed without warning mid-storm.
	dir := t.TempDir()
	victim := startDaemon(t, nil, daemonArgs(dir)...)
	waitDaemonReady(t, victim.url)
	stormCtx, stopStorm := context.WithCancel(context.Background())
	defer stopStorm()
	stormDone := make(chan replay.PlayResult, 1)
	go func() {
		r, _ := replayStorm(stormCtx, victim.url, storm) // failures expected: the server dies
		stormDone <- r
	}()

	// Kill once the storm is genuinely mid-flight: some requests completed
	// and at least one snapshot committed, with more traffic still to come.
	deadline := time.Now().Add(30 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("storm never reached a mid-flight state to crash in")
		}
		committed, _ := filepath.Glob(filepath.Join(dir, "*.tsnap"))
		if len(committed) > 0 {
			if s := fetchStats(t, victim.url); s.Completed >= 5 {
				break
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	victim.kill()
	stopStorm()
	interrupted := <-stormDone
	if interrupted.Completed >= int64(len(storm.Records)) {
		t.Fatalf("storm finished (%d/%d) before the kill; nothing was interrupted",
			interrupted.Completed, len(storm.Records))
	}

	// Recovery: restart on the same directory.
	revived := startDaemon(t, nil, daemonArgs(dir)...)
	waitDaemonReady(t, revived.url)
	res, err = replayStorm(context.Background(), revived.url, storm)
	if err != nil || res.Failed > 0 {
		t.Fatalf("post-recovery replay: err=%v result=%+v\nstderr:\n%s", err, res, revived.stderrText())
	}
	if seeded := metricValue(t, revived.url, "tracevm_nodes_seeded_from_snapshot_total"); seeded <= 0 {
		t.Errorf("restarted daemon seeded no profile nodes from the crashed run's snapshots")
	}
	got := perProgramInstrs(fetchStats(t, revived.url))
	if len(got) != len(want) {
		t.Fatalf("program sets diverge after crash recovery: got %d, want %d", len(got), len(want))
	}
	for name, w := range want {
		g, ok := got[name]
		if !ok {
			t.Errorf("program %q ran crash-free but not after recovery", name)
			continue
		}
		if g != w {
			t.Errorf("program %q: recovered replay [runs instrs] = %v, crash-free = %v", name, g, w)
		}
	}
}

// TestDaemonCrashPointSnapshotCommit arms the snapshot-commit crash point in
// the child and verifies the injected crash semantics: the process dies hard
// with the designated exit code immediately after its first durable commit,
// the committed file survives, and a restarted daemon warm-starts from it.
func TestDaemonCrashPointSnapshotCommit(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and supervises real daemon processes")
	}
	storm := loadStorm(t)
	dir := t.TempDir()

	victim := startDaemon(t,
		[]string{"TRACEVM_CRASH_POINT=" + crash.PointSnapshotCommit},
		daemonArgs(dir)...)
	waitDaemonReady(t, victim.url)
	// The storm will be cut short by the injected crash; every error after
	// the exit is expected.
	_, _ = replayStorm(context.Background(), victim.url, storm)
	err := victim.wait()
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.ExitCode() != crash.ExitCode {
		t.Fatalf("armed daemon exit = %v, want exit code %d\nstderr:\n%s", err, crash.ExitCode, victim.stderrText())
	}
	if !strings.Contains(victim.stderrText(), "crash: injected hard exit") {
		t.Errorf("crash point fired without announcing itself:\n%s", victim.stderrText())
	}
	committed, _ := filepath.Glob(filepath.Join(dir, "*.tsnap"))
	if len(committed) == 0 {
		t.Fatal("crash point fired before the commit was durable: no .tsnap on disk")
	}

	revived := startDaemon(t, nil, daemonArgs(dir)...)
	waitDaemonReady(t, revived.url)
	if res, err := replayStorm(context.Background(), revived.url, storm); err != nil || res.Failed > 0 {
		t.Fatalf("post-crash replay: err=%v result=%+v", err, res)
	}
	if seeded := metricValue(t, revived.url, "tracevm_nodes_seeded_from_snapshot_total"); seeded <= 0 {
		t.Error("restart did not warm-seed from the snapshot committed right before the crash")
	}
}

// TestDaemonQuarantinesCorruptSnapshotAtStartup flips one bit in a committed
// snapshot between daemon runs — silent disk corruption — and verifies the
// restarted daemon heals itself: the damaged file is quarantined to a
// .corrupt sidecar, the quarantine is visible in /v1/metrics, readiness stays
// green, and the affected program still serves (cold).
func TestDaemonQuarantinesCorruptSnapshotAtStartup(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and supervises real daemon processes")
	}
	dir := t.TempDir()

	first := startDaemon(t, nil, daemonArgs(dir)...)
	waitDaemonReady(t, first.url)
	resp, m := postRun(t, first.url, `{"workload":"compress","mode":"trace"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("priming run: status %d: %v", resp.StatusCode, m)
	}
	first.shutdown(t) // the final flush commits the learned profile

	committed, _ := filepath.Glob(filepath.Join(dir, "*.tsnap"))
	if len(committed) != 1 {
		t.Fatalf("committed snapshots = %d, want 1", len(committed))
	}
	data, err := os.ReadFile(committed[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x04
	if err := os.WriteFile(committed[0], data, 0o644); err != nil {
		t.Fatal(err)
	}

	second := startDaemon(t, nil, daemonArgs(dir)...)
	waitDaemonReady(t, second.url)
	if q := metricValue(t, second.url, "tracevm_snapshots_quarantined_total"); q != 1 {
		t.Errorf("tracevm_snapshots_quarantined_total = %v, want 1", q)
	}
	if _, err := os.Stat(committed[0] + ".corrupt"); err != nil {
		t.Errorf("no .corrupt sidecar for the damaged snapshot: %v", err)
	}
	if _, err := os.Stat(committed[0]); !os.IsNotExist(err) {
		t.Errorf("damaged snapshot still in the store (err=%v); it would be retried forever", err)
	}
	resp, m = postRun(t, second.url, `{"workload":"compress","mode":"trace"}`)
	if resp.StatusCode != http.StatusOK {
		t.Errorf("run after quarantine: status %d: %v", resp.StatusCode, m)
	}
}
