// Command tracevm is the trace-cache virtual machine's offline tool. It
// runs programs, builds modules and listings, lints bytecode, inspects
// profile snapshots and regenerates the paper's tables.
//
// A program is a MiniJava source file (.mj), a jasm assembly file (.jasm),
// a serialized module (.jtm), or a built-in workload named with -workload.
//
// Usage:
//
//	tracevm run -workload compress -mode trace -threshold 0.97 -delay 64 -stats
//	tracevm run -workload soot -events 50   # print the last 50 observability events
//	tracevm run -mode profile -dot bcg.dot prog.mj
//	tracevm run -mode profile -dot - -min 100 -workload compress > bcg.dot
//	tracevm build -o prog.jtm prog.mj       # compile or assemble to a module
//	tracevm build -S -workload compress     # print a listing
//	tracevm lint prog.jasm other.mj         # verify, print dataflow facts
//	tracevm snap prog.tsnap                 # summarize a profile snapshot
//	tracevm bench -table 3                  # regenerate one of Tables I–VII
//
// Run 'tracevm <command> -h' for a command's flags.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro"
	"repro/internal/api"
	"repro/internal/bytecode"
	"repro/internal/classfile"
	"repro/internal/jasm"
	"repro/internal/minijava"
	"repro/internal/obs"
	"repro/internal/opt"
)

var commands = map[string]func(w io.Writer, args []string) error{
	"run":   runCmd,
	"build": buildCmd,
	"lint":  lintCmd,
	"snap":  snapCmd,
	"bench": benchCmd,
}

const usage = `usage: tracevm <command> [flags] [args]

commands:
  run    run a program: prog.{mj,jasm,jtm} or -workload W
  build  write a program as a module (-o) or a listing (-S)
  lint   verify programs and print their dataflow facts
  snap   inspect, compare and scrub profile snapshots
  bench  regenerate the paper's tables and experiments

Run 'tracevm <command> -h' for a command's flags.
`

func main() {
	if len(os.Args) < 2 || commands[os.Args[1]] == nil {
		fmt.Fprint(os.Stderr, usage)
		os.Exit(2)
	}
	if err := commands[os.Args[1]](os.Stdout, os.Args[2:]); err != nil {
		fmt.Fprintf(os.Stderr, "tracevm: %v\n", err)
		os.Exit(1)
	}
}

// load turns a -workload name or the one program file in args into a
// program. MiniJava comes back linked; .jasm and .jtm come back unlinked,
// so lint can report on programs the linker would refuse. entry names the
// entry class of a MiniJava program in which several classes declare main.
func load(workload, entry string, args []string) (*classfile.Program, error) {
	if workload != "" {
		src, err := repro.WorkloadSource(workload)
		if err != nil {
			return nil, err
		}
		return minijava.CompileWithEntry(src, entry)
	}
	if len(args) != 1 {
		return nil, fmt.Errorf("expected one program file or -workload (available: %s)",
			strings.Join(repro.WorkloadNames(), ", "))
	}
	path := args[0]
	if strings.HasSuffix(path, ".jtm") {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return classfile.Read(f)
	}
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if strings.HasSuffix(path, ".jasm") {
		return jasm.AssembleUnlinked(string(src))
	}
	return minijava.CompileWithEntry(string(src), entry)
}

func runCmd(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	workloadName := fs.String("workload", "", "run a built-in workload (compress, javac, raytrace, mpegaudio, soot, scimark)")
	modeStr := fs.String("mode", "trace", "dispatch mode: plain, instr, profile, trace, trace-deploy")
	threshold := fs.Float64("threshold", 0.97, "trace completion threshold (0..1]")
	delay := fs.Int("delay", 64, "start-state delay in executions")
	maxSteps := fs.Int64("maxsteps", 0, "instruction budget (0 = unlimited)")
	showStats := fs.Bool("stats", false, "print execution statistics after the run")
	showTraces := fs.Bool("traces", false, "print the live trace cache contents after the run")
	events := fs.Int("events", 0, "keep the newest N observability events and print them after the run (0 = disabled)")
	dotFile := fs.String("dot", "", "write the branch correlation graph as DOT to this file; - writes it to stdout in place of the program's output")
	minTotal := fs.Int("min", 2, "-dot: omit nodes executed fewer than this many times (decayed)")
	fs.Parse(args)

	mode, err := api.ParseMode(*modeStr)
	if err != nil {
		return err
	}
	prog, err := load(*workloadName, "", fs.Args())
	if err == nil {
		err = prog.Link()
	}
	if err != nil {
		return err
	}
	out := w
	if *dotFile == "-" {
		out = io.Discard
	}
	vm, err := repro.NewVM(prog,
		repro.WithMode(mode),
		repro.WithParams(repro.Params{Threshold: *threshold, StartDelay: int32(*delay)}),
		repro.WithOutput(out),
		repro.WithMaxSteps(*maxSteps),
		repro.WithEventTrace(*events),
	)
	if err != nil {
		return err
	}
	if err := vm.Run(); err != nil {
		return err
	}

	if *showStats {
		c := vm.Counters()
		m := vm.Metrics()
		fmt.Fprintf(os.Stderr, "instructions:        %d\n", c.Instrs)
		fmt.Fprintf(os.Stderr, "block dispatches:    %d\n", c.BlockDispatches)
		fmt.Fprintf(os.Stderr, "trace dispatches:    %d\n", c.TraceDispatches)
		fmt.Fprintf(os.Stderr, "traces entered:      %d\n", c.TracesEntered)
		fmt.Fprintf(os.Stderr, "traces completed:    %d\n", c.TracesCompleted)
		fmt.Fprintf(os.Stderr, "avg trace length:    %.2f blocks\n", m.AvgTraceLength)
		fmt.Fprintf(os.Stderr, "coverage:            %.1f%%\n", m.Coverage*100)
		fmt.Fprintf(os.Stderr, "in-cache coverage:   %.1f%%\n", m.CacheCoverage*100)
		fmt.Fprintf(os.Stderr, "completion rate:     %.2f%%\n", m.CompletionRate*100)
		fmt.Fprintf(os.Stderr, "signals:             %d\n", c.Signals)
		fmt.Fprintf(os.Stderr, "traces built:        %d\n", c.TracesBuilt)
		fmt.Fprintf(os.Stderr, "BCG nodes:           %d\n", vm.NumBCGNodes())
	}
	if *showTraces {
		for _, t := range vm.Traces() {
			fmt.Fprintf(os.Stderr, "trace %d: %d blocks, p=%.3f, entered %d, completed %d\n",
				t.ID, t.Blocks, t.ExpectedCompletion, t.Entered, t.Completed)
		}
	}
	if *events > 0 {
		var enc obs.Encoder
		var buf []byte
		for _, e := range vm.Events(*events) {
			buf = enc.AppendText(buf[:0], e)
			fmt.Fprintf(os.Stderr, "%s\n", buf)
		}
	}
	if *dotFile == "" {
		return nil
	}
	dot := vm.DumpBCG(*minTotal)
	if *dotFile == "-" {
		_, err := io.WriteString(w, dot)
		return err
	}
	return os.WriteFile(*dotFile, []byte(dot), 0o644)
}

func buildCmd(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("build", flag.ExitOnError)
	out := fs.String("o", "", "output module file (.jtm)")
	asm := fs.Bool("S", false, "print a listing instead of writing a module")
	optimize := fs.Bool("O", false, "run the static bytecode optimizer")
	workloadName := fs.String("workload", "", "build a built-in workload instead of a file")
	entry := fs.String("entry", "", "entry class of a MiniJava program in which several classes declare main")
	fs.Parse(args)

	prog, err := load(*workloadName, *entry, fs.Args())
	if err == nil {
		err = prog.Link()
	}
	if err != nil {
		return err
	}
	if *optimize {
		st, err := opt.Program(prog)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "tracevm: %s\n", st)
	}
	if *asm {
		return list(w, prog)
	}
	if *out == "" {
		return fmt.Errorf("use -o file.jtm or -S")
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	if err := repro.SaveModule(f, prog); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// list prints a program's classes, fields and methods, with each method's
// native binding, abstract marker or disassembled code.
func list(w io.Writer, prog *classfile.Program) error {
	for _, c := range prog.Classes {
		fmt.Fprintf(w, "class %s", c.Name)
		if c.SuperName != "" {
			fmt.Fprintf(w, " extends %s", c.SuperName)
		}
		fmt.Fprintln(w)
		for _, f := range c.Fields {
			static := ""
			if f.Static {
				static = "static "
			}
			fmt.Fprintf(w, "  field %s%s %s\n", static, f.Name, f.Type)
		}
		for _, m := range c.Methods {
			static := ""
			if m.Static {
				static = "static "
			}
			fmt.Fprintf(w, "  method %s%s/%d -> %s (locals %d)\n", static, m.Name, len(m.Params), m.Ret, m.MaxLocals)
			switch {
			case m.Native != "":
				fmt.Fprintf(w, "    <native %s>\n", m.Native)
			case m.Abstract:
				fmt.Fprintf(w, "    <abstract>\n")
			default:
				listing, err := bytecode.Disassemble(m.Code)
				if err != nil {
					return err
				}
				fmt.Fprint(w, listing)
			}
		}
	}
	return nil
}
