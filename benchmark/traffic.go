package main

import (
	"bytes"
	"embed"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"sync"

	"repro/internal/api"
	"repro/internal/cfg"
	"repro/internal/core"
	"repro/internal/minijava"
	"repro/internal/progen"
	"repro/internal/workload"
)

// This file is the traffic generator: it turns (workload, seed, seconds)
// into the complete request list before any daemon starts. The daemon only
// ever sees these requests.

//go:embed expected/*.out
var expectedFS embed.FS

// spec describes one workload: how its daemon is flagged, which traffic it
// plays, and how many requests one measured second is worth. The per-second
// counts were sized so the timed list takes about --seconds on two cores at
// the commit that added the benchmark, and are frozen: the work of a run is
// fixed by (workload, seed, seconds), never by how fast the system is.
type spec struct {
	name string
	// mode is the dispatch mode of steady requests ("" for the generated
	// workloads, which choose per request).
	mode string
	// compileTraces starts the daemon with -compile-traces (tier 2).
	compileTraces bool
	// snapshots starts the daemon with -snapshot-dir <tmp> -snapshot-interval 2s.
	snapshots bool
	// perSecond is requests per measured second (cycles of the built-ins
	// for the steady rows).
	perSecond float64
	// prefix is the share of the timed list the traced run replays.
	prefix float64
	build  func(s spec, g *generator, n int) traffic
}

var specs = []spec{
	{name: "steady-plain", mode: "plain", perSecond: 1.8, prefix: 0.17, build: steady},
	{name: "steady-trace", mode: "trace", perSecond: 1.8, prefix: 0.17, build: steady},
	{name: "steady-tier2", mode: "trace", compileTraces: true, perSecond: 1.8, prefix: 0.17, build: steady},
	{name: "short-hot", snapshots: true, perSecond: 5000, prefix: 0.25, build: shortHot},
	{name: "cold-tenants", snapshots: true, perSecond: 70, prefix: 0.25, build: coldTenants},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// program is one tenant: a built-in named on the wire, or generated MiniJava
// sent inline. Want is the reference output every response is compared to.
type program struct {
	Name    string
	Builtin bool
	Source  string
	Want    string
}

// request is one POST /v1/run, fully rendered.
type request struct {
	Body    []byte
	Program int // index into traffic.Programs
	Mode    string
}

// traffic is everything one run plays. Warmup is played once, through the
// same closed loop, during set-up; Timed is the measured list.
type traffic struct {
	Programs []program
	Warmup   []request
	Timed    []request
}

// class names the (program, mode) pair latency medians are grouped by.
func (t *traffic) class(r *request) string {
	return t.Programs[r.Program].Name + "/" + r.Mode
}

// generator carries the seeded random source and the built-in set (the
// smoke test narrows the latter to the two fastest programs).
type generator struct {
	rng      *rand.Rand
	builtins []string
}

// generate builds the whole traffic of one run. The same (workload, seed,
// seconds, builtins) always yields byte-identical lists.
func generate(s spec, seed uint64, seconds float64, builtins []string) traffic {
	g := &generator{rng: rand.New(rand.NewPCG(seed, 0x7ace)), builtins: builtins}
	n := int(math.Round(s.perSecond * seconds))
	return s.build(s, g, n)
}

// add renders one request for program prog and appends it to list.
func (t *traffic) add(list *[]request, prog int, mode string) {
	p := t.Programs[prog]
	wire := api.RunRequest{Mode: mode}
	if p.Builtin {
		wire.Workload = p.Name
	} else {
		wire.Source = p.Source
	}
	body, err := json.Marshal(wire)
	if err != nil {
		panic(err) // strings and numbers only: cannot fail
	}
	*list = append(*list, request{Body: body, Program: prog, Mode: mode})
}

// steady plays the built-in programs by name in seeded-shuffled round-robin
// cycles, all in the spec's mode. Warm-up runs every program twice back to
// back so both workers' profiler shards have seen it.
func steady(s spec, g *generator, cycles int) traffic {
	var t traffic
	for _, name := range g.builtins {
		want, err := expectedFS.ReadFile("expected/" + name + ".out")
		if err != nil {
			panic(fmt.Sprintf("no expected output committed for built-in %q", name))
		}
		w, err := workload.ByName(name)
		if err != nil {
			panic(err)
		}
		t.Programs = append(t.Programs, program{Name: name, Builtin: true, Source: w.Source, Want: string(want)})
	}
	for i := range t.Programs {
		t.add(&t.Warmup, i, s.mode)
		t.add(&t.Warmup, i, s.mode)
	}
	order := make([]int, len(t.Programs))
	for i := range order {
		order[i] = i
	}
	for c := 0; c < max(cycles, 2); c++ {
		g.rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for _, p := range order {
			t.add(&t.Timed, p, s.mode)
		}
	}
	return t
}

// Screening bands. Generated programs are heavy-tailed (16 to millions of
// executed instructions, 1–25 KB of source); a list built from unscreened
// seeds is dominated by whichever outlier the seed happened to draw, so two
// seeds would not measure the same thing.
var (
	// hotBand keeps short-hot programs short: at most a few thousand
	// instructions, so the VM is a minority of the request and HTTP, JSON,
	// hashing, admission and session set-up do the work.
	hotBand = band{srcLo: 7000, srcHi: 9500, instrLo: 800, instrHi: 2500}
	// coldBand drops programs whose main returns at once (their analysis
	// cost is near zero, a second mode in the latency distribution) and the
	// long-running tail.
	coldBand = band{srcLo: 6000, srcHi: 8500, instrLo: 1000, instrHi: 50000}
)

const (
	hotPrograms = 32
	hotSkew     = 1.07
	coldWarmup  = 24
)

// shortHot pre-registers a small pool of generated programs in set-up and
// then draws inline-source requests zipf-distributed over the pool, half
// trace ("writes": they learn and count toward epochs) and half plain
// ("reads") by seeded coin.
func shortHot(s spec, g *generator, n int) traffic {
	t := traffic{Programs: g.screen(hotPrograms, hotBand)}
	for i := range t.Programs {
		for _, mode := range []string{"trace", "trace", "plain", "plain"} {
			t.add(&t.Warmup, i, mode)
		}
	}
	zipf := rand.NewZipf(g.rng, hotSkew, 1, uint64(len(t.Programs)-1))
	for i := 0; i < max(n, 40); i++ {
		mode := "plain"
		if g.rng.Uint64()&1 == 1 {
			mode = "trace"
		}
		t.add(&t.Timed, int(zipf.Uint64()), mode)
	}
	return t
}

// coldTenants submits n distinct generated programs exactly once each, so
// every timed request is a registry miss. A further coldWarmup distinct
// tenants warm the process (not the registry) during set-up.
func coldTenants(s spec, g *generator, n int) traffic {
	n = max(n, 20)
	t := traffic{Programs: g.screen(n+coldWarmup, coldBand)}
	for i := range t.Programs {
		list := &t.Timed
		if i >= n {
			list = &t.Warmup
		}
		t.add(list, i, "trace")
	}
	return t
}

type band struct {
	srcLo, srcHi     int   // source bytes
	instrLo, instrHi int64 // executed instructions
}

// screen returns the first n generated programs inside the band, walking
// progen seeds upward from a seeded base. Candidates are evaluated in
// parallel but accepted in seed order, so the result depends only on the
// generator's seed. The reference output comes from a ModeInstr run here in
// the generator process: a different dispatch engine from the block and
// trace engines the daemon is asked to use.
func (g *generator) screen(n int, b band) []program {
	base := int64(g.rng.Uint64() >> 24)
	const chunk = 64
	out := make([]program, 0, n)
	for start := int64(0); len(out) < n; start += chunk {
		var cand [chunk]*program
		var wg sync.WaitGroup
		sem := make(chan struct{}, runtime.GOMAXPROCS(0))
		for i := range cand {
			wg.Add(1)
			sem <- struct{}{}
			go func() {
				defer wg.Done()
				cand[i] = candidate(base+start+int64(i), b)
				<-sem
			}()
		}
		wg.Wait()
		for _, p := range cand {
			if p != nil && len(out) < n {
				out = append(out, *p)
			}
		}
	}
	return out
}

// candidate generates one program and returns it when it lies in the band.
func candidate(seed int64, b band) *program {
	src := progen.Generate(seed, progen.Config{})
	if len(src) < b.srcLo || len(src) > b.srcHi {
		return nil
	}
	prog, err := minijava.Compile(src)
	if err != nil {
		return nil
	}
	pcfg, err := cfg.BuildProgram(prog)
	if err != nil {
		return nil
	}
	var out bytes.Buffer
	sess, err := core.NewSession(prog, pcfg, core.SessionOptions{Mode: core.ModeInstr, Out: &out, MaxSteps: b.instrHi})
	if err != nil || sess.Run() != nil || sess.Counters.Instrs < b.instrLo {
		return nil
	}
	return &program{Name: fmt.Sprintf("t%d", seed), Source: src, Want: out.String()}
}
