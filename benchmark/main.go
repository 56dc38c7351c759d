// Command benchmark is the repository's scoreboard: it builds cmd/tracevmd,
// starts it as a subprocess per workload, plays a seeded fixed request list
// at POST /v1/run in a closed loop, checks every response's output, and
// prints every metric by name and unit. See README.md in this directory.
//
// One run (the form BENCHMARK.json's command takes):
//
//	bash benchmark/run.sh --workload short-hot --seed 1 --seconds 12 --trace 0
//
// --trace 0 prints the end-to-end metrics from the real daemon; --trace 1
// prints the per-layer metrics and writes .bench_build/spans-<workload>.json.
// Without --workload every workload runs untraced and a table is printed;
// -aa runs that suite twice and fails when the two disagree beyond the
// bounds in BENCHMARK.json.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
)

// manifest is the part of BENCHMARK.json the driver reads back.
type manifest struct {
	RunSeconds float64 `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readManifest(root string) (manifest, error) {
	var m manifest
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return m, err
	}
	return m, json.Unmarshal(raw, &m)
}

func main() {
	var (
		root    = flag.String("root", ".", "checkout root (holds go.mod, cmd/tracevmd and BENCHMARK.json)")
		name    = flag.String("workload", "", "workload to run (default: all of them, untraced)")
		seed    = flag.Uint64("seed", 1, "traffic seed; 1 is the recorded default, 2 is held out for later claims")
		seconds = flag.Float64("seconds", 0, "how long the timed list is sized for (default: run_seconds of BENCHMARK.json)")
		traced  = flag.Int("trace", 0, "0: end-to-end metrics from the daemon; 1: per-layer metrics and spans")
		aa      = flag.Bool("aa", false, "run the whole suite twice (second pass in reverse order) and compare against the bounds")
		out     = flag.String("out", "", "with -aa: also write both result sets to this file")
	)
	flag.Parse()
	if err := run(*root, *name, *seed, *seconds, *traced == 1, *aa, *out); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(root, name string, seed uint64, seconds float64, traced, aa bool, out string) error {
	man, err := readManifest(root)
	if err != nil {
		return err
	}
	if seconds <= 0 {
		seconds = man.RunSeconds
	}
	b, err := newBench(root, min(runtime.NumCPU(), 4), builtinNames)
	if err != nil {
		return err
	}
	defer b.close()

	if name == "" {
		return suite(b, man, root, seed, seconds, aa, out)
	}
	s, ok := specByName(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	var res result
	if traced {
		res, err = b.runTraced(s, seed, seconds)
	} else {
		res, err = b.runE2E(s, seed, seconds)
	}
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(res)
}

// environment is recorded beside suite results: numbers from a loaded or
// differently sized box are not comparable.
type environment struct {
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Kernel     string  `json:"kernel"`
	Commit     string  `json:"commit"`
	LoadAvg1   float64 `json:"loadavg_1min"`
}

func readEnvironment(root string) environment {
	env := environment{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Kernel: "unknown", Commit: "unknown",
	}
	if raw, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		env.Kernel = strings.TrimSpace(string(raw))
	}
	if raw, err := os.ReadFile("/proc/loadavg"); err == nil {
		if f := strings.Fields(string(raw)); len(f) > 0 {
			env.LoadAvg1, _ = strconv.ParseFloat(f[0], 64) // unparsable reads as idle
		}
	}
	git := exec.Command("git", "rev-parse", "HEAD")
	git.Dir = root
	if raw, err := git.Output(); err == nil {
		env.Commit = strings.TrimSpace(string(raw))
	}
	return env
}

// suite runs every workload untraced and prints one table; with aa it runs
// them again in reverse order (so drift over the session biases neither
// set), prints both values, the relative difference and the bound for every
// workload × metric, and fails on any breach.
func suite(b *bench, man manifest, root string, seed uint64, seconds float64, aa bool, out string) error {
	env := readEnvironment(root)
	if env.LoadAvg1 > float64(env.NumCPU)/2 {
		b.logf("warning: 1-min load average %.2f exceeds half of %d CPUs; expect noisy numbers", env.LoadAvg1, env.NumCPU)
	}
	pass := func(order []spec) (map[string]result, error) {
		set := map[string]result{}
		for _, s := range order {
			res, err := b.runE2E(s, seed, seconds)
			if err != nil {
				return nil, err
			}
			set[s.name] = res
		}
		return set, nil
	}
	sets := make([]map[string]result, 1, 2)
	var err error
	if sets[0], err = pass(specs); err != nil {
		return err
	}
	if aa {
		reversed := slices.Clone(specs)
		slices.Reverse(reversed)
		second, err := pass(reversed)
		if err != nil {
			return err
		}
		sets = append(sets, second)
	}

	breaches := 0
	fmt.Printf("%-13s %-17s %-6s %12s", "workload", "metric", "unit", "value")
	if aa {
		fmt.Printf(" %12s %8s %6s", "second", "diff", "bound")
	}
	fmt.Println()
	for _, s := range specs {
		a := sets[0][s.name]
		for _, mm := range man.EndToEnd {
			v := a.Metrics[mm.Name]
			fmt.Printf("%-13s %-17s %-6s %12.4f", s.name, mm.Name, v.Unit, v.Value)
			if aa {
				w := sets[1][s.name].Metrics[mm.Name]
				diff := (w.Value - v.Value) / v.Value
				mark := ""
				if diff > mm.Bound || diff < -mm.Bound {
					mark = "  BREACH"
					breaches++
				}
				fmt.Printf(" %12.4f %+7.1f%% %5.0f%%%s", w.Value, diff*100, mm.Bound*100, mark)
			}
			fmt.Println()
		}
		fmt.Printf("%-13s %-17s %-6s %12d  (%d failed, outputs correct: %v)\n", s.name, "attempted", "count", a.Attempted, a.Failed, a.Correct)
		for _, set := range sets {
			if r := set[s.name]; r.Failed > 0 || !r.Correct {
				breaches++
			}
		}
	}
	if out != "" {
		data, err := json.MarshalIndent(struct {
			Environment environment         `json:"environment"`
			Seed        uint64              `json:"seed"`
			Seconds     float64             `json:"seconds"`
			Sets        []map[string]result `json:"sets"`
		}{env, seed, seconds, sets}, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	if breaches > 0 {
		return fmt.Errorf("%d breaches: failed requests or A/A differences beyond the bound", breaches)
	}
	return nil
}
