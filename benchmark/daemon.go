package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/stats"
)

// This file owns the tracevmd child process: build, start, readiness,
// resource readings from /proc, and a stop that cannot hang.

const (
	readyDeadline = 15 * time.Second
	stopDeadline  = 15 * time.Second
	// clockTick is USER_HZ, the unit of utime/stime in /proc/<pid>/stat;
	// Linux fixes it at 100 on every architecture Go runs on.
	clockTick = 100
)

// buildDaemon compiles cmd/tracevmd from the checkout at root into bin.
func buildDaemon(root, bin string) error {
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/tracevmd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("building tracevmd: %v\n%s", err, out)
	}
	return nil
}

// daemon is one running tracevmd.
type daemon struct {
	cmd     *exec.Cmd
	base    string // http://127.0.0.1:<port>
	snapDir string // removed at stop; "" when snapshots are off
	stderr  bytes.Buffer
	exited  chan struct{} // closed once Wait has returned
	waitErr error
}

// startDaemon execs the daemon on a free loopback port and returns once
// /v1/readyz answers 200. It fails fast when the child exits early and
// gives up at readyDeadline; in both cases the child is reaped.
func startDaemon(bin string, s spec, workers int, tmp string) (*daemon, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	l.Close()

	d := &daemon{base: "http://" + addr, exited: make(chan struct{})}
	args := []string{"-addr", addr, "-workers", strconv.Itoa(workers)}
	if s.compileTraces {
		args = append(args, "-compile-traces")
	}
	if s.snapshots {
		if d.snapDir, err = os.MkdirTemp(tmp, "snap-"); err != nil {
			return nil, err
		}
		args = append(args, "-snapshot-dir", d.snapDir, "-snapshot-interval", snapshotInterval.String())
	}
	d.cmd = exec.Command(bin, args...)
	d.cmd.Stderr = &d.stderr
	// The child must not outlive a benchmark that is itself killed.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := d.cmd.Start(); err != nil {
		d.cleanup()
		return nil, err
	}
	go func() {
		d.waitErr = d.cmd.Wait()
		close(d.exited)
	}()

	probe := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(readyDeadline)
	for {
		resp, err := probe.Get(d.base + "/v1/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		select {
		case <-d.exited:
			d.cleanup()
			return nil, fmt.Errorf("tracevmd exited before it was ready: %v\n%s", d.waitErr, d.stderr.String())
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("tracevmd not ready after %v\n%s", readyDeadline, d.stderr.String())
		}
	}
}

// stop sends SIGTERM (the daemon drains and commits snapshots), waits for
// the exit, kills after stopDeadline, and removes the snapshot directory.
func (d *daemon) stop() error {
	defer d.cleanup()
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // already-exited is handled below
	select {
	case <-d.exited:
	case <-time.After(stopDeadline):
		_ = d.cmd.Process.Kill()
		<-d.exited
		return fmt.Errorf("tracevmd ignored SIGTERM for %v and was killed", stopDeadline)
	}
	var ee *exec.ExitError
	if errors.As(d.waitErr, &ee) && ee.ExitCode() != 0 {
		return fmt.Errorf("tracevmd exit: %v\n%s", d.waitErr, d.stderr.String())
	}
	return nil
}

func (d *daemon) cleanup() {
	if d.snapDir != "" {
		os.RemoveAll(d.snapDir)
	}
}

// cpuSeconds is the child's user+system CPU time so far.
func (d *daemon) cpuSeconds() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields are counted from
	// the closing parenthesis. utime and stime are fields 14 and 15.
	rest := string(raw)
	if i := strings.LastIndexByte(rest, ')'); i >= 0 {
		rest = rest[i+1:]
	}
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line %q", raw)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad cpu fields in /proc stat line %q", raw)
	}
	return float64(utime+stime) / clockTick, nil
}

// peakRSSMB is the child's resident-set high-water mark (VmHWM).
func (d *daemon) peakRSSMB() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("bad VmHWM line %q", line)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// daemonStats is the part of GET /v1/stats the per-layer counters read.
type daemonStats struct {
	Rejected       int64
	EpochMerges    int64
	ShardsMerged   int64
	RegistryHits   int64
	RegistryMisses int64
	Global         stats.Counters
}

// stats fetches GET /v1/stats.
func (d *daemon) stats() (daemonStats, error) {
	var snap daemonStats
	resp, err := http.Get(d.base + "/v1/stats")
	if err != nil {
		return snap, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return snap, fmt.Errorf("GET /v1/stats: HTTP %d", resp.StatusCode)
	}
	err = json.NewDecoder(resp.Body).Decode(&snap)
	return snap, err
}
