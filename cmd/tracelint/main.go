// Command tracelint statically checks programs for the trace-cache VM: it
// runs the abstract-interpretation bytecode verifier over every input and,
// for programs that pass, prints the dataflow facts the runtime consumes —
// the CFG hints (dominators, loop headers, single-successor blocks) and the
// whole-program value-flow facts (constant slots, statically decided
// branches, unreachable blocks) that feed BCG hint seeding and the trace
// cache's guard proofs.
//
// Inputs are MiniJava sources (.mj), jasm assembly (.jasm, analyzed without
// linking so malformed programs still produce a report), or serialized
// modules (.jtm).
//
// Usage:
//
//	tracelint prog.jasm other.mj           # human-readable report + facts
//	tracelint -facts prog.mj               # same, facts requested explicitly
//	tracelint -json prog.jasm              # machine-readable report
//	tracelint -no-facts prog.jtm           # verification only
//	tracelint -strict prog.mj              # advisory warnings fail too
//
// Exit status is 1 if any input fails to load, is rejected, or (under
// -strict) draws an advisory warning such as unreachable-block.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/valueflow"
	"repro/internal/cfg"
	"repro/internal/classfile"
	"repro/internal/jasm"
	"repro/internal/minijava"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit one JSON object per input file")
	showFacts := flag.Bool("facts", true, "print the CFG and value-flow facts for accepted programs")
	noFacts := flag.Bool("no-facts", false, "skip the CFG/dominator fact dump, verify only")
	strict := flag.Bool("strict", false, "treat advisory warnings (e.g. unreachable-block) as failures")
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: tracelint [-json] [-facts|-no-facts] [-strict] file.{mj,jasm,jtm}...")
		os.Exit(2)
	}
	exit := 0
	for _, path := range flag.Args() {
		if !lintFile(os.Stdout, path, *jsonOut, *showFacts && !*noFacts, *strict) {
			exit = 1
		}
	}
	os.Exit(exit)
}

// methodFacts is the per-method slice of the JSON fact dump.
type methodFacts struct {
	Method       string   `json:"method"`
	Blocks       int      `json:"blocks"`
	LoopHeaders  []uint32 `json:"loopHeaderPCs"`
	UniqueBlocks []uint32 `json:"uniqueBlockPCs"`
	// Value-flow facts: blocks whose conditional/switch terminator the
	// analysis decided one-way, and blocks proven unreachable.
	DecidedPCs     []uint32 `json:"decidedBranchPCs,omitempty"`
	UnreachablePCs []uint32 `json:"unreachablePCs,omitempty"`
}

type fileResult struct {
	File   string           `json:"file"`
	OK     bool             `json:"ok"`
	Error  string           `json:"error,omitempty"`
	Report *analysis.Report `json:"report,omitempty"`
	Facts  []methodFacts    `json:"facts,omitempty"`
	// ValueFlow summarizes the whole-program value-flow table (omitted with
	// -no-facts or when the analysis degraded to the claim-free top table).
	ValueFlow *valueflow.Stats `json:"valueflow,omitempty"`
}

// load parses path into a (possibly unlinked) program.
func load(path string) (*classfile.Program, error) {
	switch {
	case strings.HasSuffix(path, ".jtm"):
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return classfile.Read(f)
	case strings.HasSuffix(path, ".jasm"):
		src, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		return jasm.AssembleUnlinked(string(src))
	default:
		src, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		return minijava.Compile(string(src))
	}
}

// facts links the program (verification already passed, so linking errors
// are symbol-resolution problems, reported as such) and extracts the
// dataflow facts per method: the CFG hints plus the value-flow table.
func facts(prog *classfile.Program) ([]methodFacts, *valueflow.Stats, error) {
	if !prog.Linked() {
		if err := prog.Link(); err != nil {
			return nil, nil, err
		}
	}
	pcfg, err := cfg.BuildProgram(prog)
	if err != nil {
		return nil, nil, err
	}
	vf := valueflow.Compute(pcfg)
	hints := analysis.ComputeHintsWithFacts(pcfg, vf)
	var out []methodFacts
	for _, mc := range pcfg.Methods {
		if mc == nil {
			continue
		}
		mf := methodFacts{Method: mc.Method.QName(), Blocks: len(mc.Blocks)}
		for _, b := range mc.Blocks {
			if hints.IsLoopHeader(b.ID) {
				mf.LoopHeaders = append(mf.LoopHeaders, b.StartPC())
			}
			if hints.UniqueSucc[b.ID] != cfg.NoBlock {
				mf.UniqueBlocks = append(mf.UniqueBlocks, b.StartPC())
			}
			if vf.DecidedSucc(b.ID) != cfg.NoBlock {
				mf.DecidedPCs = append(mf.DecidedPCs, b.StartPC())
			}
			if bf := vf.Block(b.ID); bf != nil && !bf.Reachable {
				mf.UnreachablePCs = append(mf.UnreachablePCs, b.StartPC())
			}
		}
		out = append(out, mf)
	}
	var stats *valueflow.Stats
	if !vf.Top() {
		s := vf.Stats()
		stats = &s
	}
	return out, stats, nil
}

func lintFile(w *os.File, path string, jsonOut, wantFacts, strict bool) bool {
	res := fileResult{File: path}
	prog, err := load(path)
	if err != nil {
		res.Error = err.Error()
	} else {
		res.Report = analysis.Verify(prog)
		res.OK = !res.Report.Reject()
		if res.OK && strict && len(res.Report.Warnings()) > 0 {
			// -strict promotes advisory findings (unreachable-block) to
			// failures: dead code in a submitted program is a bug.
			res.OK = false
		}
		if res.OK && wantFacts {
			if fs, vs, err := facts(prog); err != nil {
				res.Error = err.Error()
				res.OK = false
			} else {
				res.Facts = fs
				res.ValueFlow = vs
			}
		}
	}

	if jsonOut {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(res)
		return res.OK
	}

	switch {
	case res.Error != "" && res.Report == nil:
		fmt.Fprintf(w, "%s: error: %s\n", path, res.Error)
	case res.Error != "":
		fmt.Fprintf(w, "%s: error: %s\n", path, res.Error)
		printReport(w, path, res.Report)
	default:
		printReport(w, path, res.Report)
	}
	if res.OK {
		fmt.Fprintf(w, "%s: ok\n", path)
		for _, mf := range res.Facts {
			fmt.Fprintf(w, "  %s: %d blocks", mf.Method, mf.Blocks)
			if len(mf.LoopHeaders) > 0 {
				fmt.Fprintf(w, ", loop headers at pc %s", pcList(mf.LoopHeaders))
			}
			if len(mf.UniqueBlocks) > 0 {
				fmt.Fprintf(w, ", single-successor blocks at pc %s", pcList(mf.UniqueBlocks))
			}
			if len(mf.DecidedPCs) > 0 {
				fmt.Fprintf(w, ", decided branches at pc %s", pcList(mf.DecidedPCs))
			}
			if len(mf.UnreachablePCs) > 0 {
				fmt.Fprintf(w, ", unreachable blocks at pc %s", pcList(mf.UnreachablePCs))
			}
			fmt.Fprintln(w)
		}
		if s := res.ValueFlow; s != nil {
			fmt.Fprintf(w, "  value-flow: %d/%d blocks reachable, %d branches decided, %d const slots, %d non-null slots\n",
				s.Reachable, s.Blocks, s.Decided, s.IntConsts+s.FloatConsts, s.NonNull)
		}
	}
	return res.OK
}

func printReport(w *os.File, path string, rep *analysis.Report) {
	for _, f := range rep.Findings {
		sev := "error"
		if f.Warn {
			sev = "warning"
		}
		fmt.Fprintf(w, "%s: %s: %s: pc %d: %s: %s\n", path, sev, f.Method, f.PC, f.Rule, f.Message)
	}
}

func pcList(pcs []uint32) string {
	parts := make([]string, len(pcs))
	for i, pc := range pcs {
		parts[i] = fmt.Sprint(pc)
	}
	return strings.Join(parts, ",")
}
