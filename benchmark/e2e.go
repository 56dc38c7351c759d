package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// This file is the untraced run: the real daemon, the whole timed list, the
// end-to-end metrics.

// snapshotInterval is the -snapshot-interval of the snapshot workloads:
// short enough that every timed list crosses several commits.
const snapshotInterval = 2 * time.Second

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one run prints as its last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is the environment every run shares.
type bench struct {
	bin      string   // built tracevmd
	outDir   string   // <root>/.bench_build; spans-<workload>.json land here
	tmp      string   // scratch directory under outDir, removed at close
	workers  int      // daemon -workers and closed-loop clients
	setups   int      // set-ups per untraced run; the median is setup_s
	builtins []string // programs of the steady rows
}

// runDeadline bounds one pass: a list sized for seconds that has not
// finished by then is cut off and its unsent requests count as failed.
func runDeadline(seconds float64) time.Time {
	return time.Now().Add(time.Duration(max(6*seconds, 30) * float64(time.Second)))
}

// setUp starts a daemon for the workload and plays the warm-up list, which
// registers programs and warms both workers. It returns the daemon and the
// time from exec to the last warm-up answer (go build excluded).
func (b *bench) setUp(s spec, t *traffic) (*daemon, time.Duration, error) {
	start := time.Now()
	d, err := startDaemon(b.bin, s, b.workers, b.tmp)
	if err != nil {
		return nil, 0, err
	}
	samples, _ := play(t, t.Warmup, b.workers, runDeadline(10), httpSender(d.base, b.workers))
	took := time.Since(start)
	if n, first := failures(samples); n > 0 {
		d.stop()
		return nil, 0, fmt.Errorf("%s: %d of %d warm-up requests failed, first: %v", s.name, n, len(samples), first)
	}
	return d, took, nil
}

// runE2E measures one workload end to end. It sets the daemon up b.setups
// times (stopping all but the last) so setup_s is a median, then plays the
// timed list once against the last daemon.
func (b *bench) runE2E(s spec, seed uint64, seconds float64) (res result, err error) {
	t := generate(s, seed, seconds, b.builtins)
	var d *daemon
	var setupS []float64
	for i := 0; i < b.setups; i++ {
		if d != nil {
			if err := d.stop(); err != nil {
				return result{}, err
			}
		}
		var took time.Duration
		if d, took, err = b.setUp(s, &t); err != nil {
			return result{}, err
		}
		setupS = append(setupS, took.Seconds())
	}
	defer func() {
		if serr := d.stop(); err == nil {
			err = serr
		}
	}()

	cpu0, err := d.cpuSeconds()
	if err != nil {
		return result{}, err
	}
	samples, wall := play(&t, t.Timed, b.workers, runDeadline(seconds), httpSender(d.base, b.workers))
	cpu1, err := d.cpuSeconds()
	if err != nil {
		return result{}, err
	}
	rss, err := d.peakRSSMB()
	if err != nil {
		return result{}, err
	}

	failed, first := failures(samples)
	if first != nil {
		b.logf("%s: %d of %d requests failed, first: %v", s.name, failed, len(samples), first)
	}
	done := len(samples) - failed
	if done == 0 {
		return result{}, fmt.Errorf("%s: no request succeeded, first: %v", s.name, first)
	}
	lat := latenciesMs(samples, nil)
	b.logf("%s: %d requests in %.2fs, %d latency samples, %d beyond p95", s.name, len(samples), wall.Seconds(), len(lat), len(lat)-len(lat)*95/100)
	return result{
		Correct:   failed == 0,
		Attempted: len(samples),
		Failed:    failed,
		Metrics: map[string]metric{
			"setup_s":          {median(setupS), "s"},
			"throughput_rps":   {float64(done) / wall.Seconds(), "req/s"},
			"latency_gmean_ms": {classGmeanMs(&t, t.Timed, samples), "ms"},
			"latency_p95_ms":   {percentile(lat, 95), "ms"},
			"cpu_ms_per_req":   {(cpu1 - cpu0) * 1000 / float64(done), "ms"},
			"peak_rss_mb":      {rss, "MB"},
		},
	}, nil
}

// newBench builds the daemon from the checkout at root and prepares the
// scratch directory under <root>/.bench_build.
func newBench(root string, workers int, builtins []string) (*bench, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	buildDir := filepath.Join(root, ".bench_build")
	bin := filepath.Join(buildDir, "bin", "tracevmd")
	if err := buildDaemon(root, bin); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		return nil, err
	}
	return &bench{
		bin: bin, outDir: buildDir, tmp: tmp, workers: workers, setups: 3, builtins: builtins,
	}, nil
}

// logf reports progress on standard error; standard output carries results.
func (b *bench) logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
}

// close removes the scratch directory.
func (b *bench) close() { os.RemoveAll(b.tmp) }
