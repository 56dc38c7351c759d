package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/valueflow"
	"repro/internal/cfg"
	"repro/internal/classfile"
)

// lintCmd statically checks programs: it runs the abstract-interpretation
// bytecode verifier over every input and, for programs that pass, prints
// the dataflow facts the runtime consumes — the CFG hints (dominators, loop
// headers, single-successor blocks) and the whole-program value-flow facts
// (constant slots, statically decided branches, unreachable blocks) that
// feed BCG hint seeding and the trace cache's guard proofs. Jasm is
// analyzed without linking, so malformed programs still produce a report.
//
//	tracevm lint prog.jasm other.mj      # human-readable report + facts
//	tracevm lint -json prog.jasm         # machine-readable report
//	tracevm lint -facts=false prog.jtm   # verification only
//	tracevm lint -strict prog.mj         # advisory warnings fail too
//
// It fails if any input fails to load, is rejected, or (under -strict)
// draws an advisory warning such as unreachable-block.
func lintCmd(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("lint", flag.ExitOnError)
	jsonOut := fs.Bool("json", false, "emit one JSON object per input file")
	showFacts := fs.Bool("facts", true, "print the CFG and value-flow facts for accepted programs")
	strict := fs.Bool("strict", false, "treat advisory warnings (e.g. unreachable-block) as failures")
	fs.Parse(args)
	if fs.NArg() == 0 {
		return fmt.Errorf("usage: tracevm lint [-json] [-facts=false] [-strict] file.{mj,jasm,jtm}...")
	}
	failed := 0
	for _, path := range fs.Args() {
		if !lintFile(w, path, *jsonOut, *showFacts, *strict) {
			failed++
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d inputs failed", failed, fs.NArg())
	}
	return nil
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
	File   string            `json:"file"`
	OK     bool              `json:"ok"`
	Error  string            `json:"error,omitempty"`
	Report *classfile.Report `json:"report,omitempty"`
	Facts  []methodFacts     `json:"facts,omitempty"`
	// ValueFlow summarizes the whole-program value-flow table (omitted with
	// -facts=false or when the analysis degraded to the claim-free top table).
	ValueFlow *valueflow.Stats `json:"valueflow,omitempty"`
}

// facts links the program (verification already passed, so linking errors
// are symbol-resolution problems, reported as such) and extracts the
// dataflow facts per method: the CFG hints plus the value-flow table.
func facts(prog *classfile.Program) ([]methodFacts, *valueflow.Stats, error) {
	if err := prog.Link(); err != nil {
		return nil, nil, err
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

func lintFile(w io.Writer, path string, jsonOut, wantFacts, strict bool) bool {
	res := fileResult{File: path}
	prog, err := load("", "", []string{path})
	if err != nil {
		res.Error = err.Error()
	} else {
		res.Report = classfile.Verify(prog)
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

	if res.Error != "" {
		fmt.Fprintf(w, "%s: error: %s\n", path, res.Error)
	}
	if res.Report != nil {
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

func printReport(w io.Writer, path string, rep *classfile.Report) {
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
