// Command analyzers is the repository's vet tool: repo-invariant static
// checks run via `go vet -vettool=$(go env GOPATH)/../bin/analyzers` (CI
// builds it into ./bin). It speaks the cmd/go unit-checking protocol — the
// same one golang.org/x/tools/go/analysis/unitchecker implements — but is
// built from the standard library alone, so the repository stays
// dependency-free.
//
// Protocol (driven by cmd/go, one process per package):
//
//	analyzers -V=full          print "<name> version <id>" for the build cache
//	analyzers -flags           print the JSON flag schema (none)
//	analyzers <file>.cfg       analyze one package described by the JSON config
//
// Checks:
//
//	hotpathalloc  functions documented with //tracevm:hotpath must not
//	              contain allocating constructs (make, new, append,
//	              composite literals, closures) nor copy a struct of 32+
//	              bytes by value; //tracevm:allow-alloc on the same or
//	              preceding line suppresses one site.
//	statsatomic   stats.Counters fields may be written only by the
//	              subsystems that own them (stats, vm, profile, core,
//	              baseline); everyone else must use the Add/Snapshot API.
package main

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Config is the JSON vet configuration cmd/go writes for each package. The
// field names mirror cmd/go/internal/work.vetConfig.
type Config struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoFiles                   []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	Standard                  map[string]bool
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
	GoVersion                 string
}

// Pass is one analyzer's view of a typechecked package.
type Pass struct {
	Fset   *token.FileSet
	Files  []*ast.File
	Pkg    *types.Package
	Info   *types.Info
	report func(token.Pos, string)
}

// Reportf records one diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(pos, fmt.Sprintf(format, args...))
}

// Analyzer is one named check.
type Analyzer struct {
	Name string
	Run  func(*Pass)
}

var analyzers = []*Analyzer{hotpathAlloc, statsAtomic}

func main() {
	args := os.Args[1:]
	if len(args) == 1 && args[0] == "-V=full" {
		// cmd/go derives the action cache key from this line; bump the
		// version when an analyzer's behavior changes.
		name := strings.TrimSuffix(filepath.Base(os.Args[0]), ".exe")
		fmt.Printf("%s version 2 buildID=tracevm-analyzers-2\n", name)
		return
	}
	if len(args) == 1 && args[0] == "-flags" {
		fmt.Println("[]")
		return
	}
	if len(args) != 1 || !strings.HasSuffix(args[0], ".cfg") {
		fmt.Fprintf(os.Stderr, "usage: analyzers <config>.cfg (driven by go vet -vettool)\n")
		os.Exit(2)
	}
	diags, err := run(args[0])
	if err != nil {
		fmt.Fprintf(os.Stderr, "analyzers: %v\n", err)
		os.Exit(1)
	}
	if len(diags) > 0 {
		for _, d := range diags {
			fmt.Fprintln(os.Stderr, d)
		}
		os.Exit(2)
	}
}

func run(cfgPath string) ([]string, error) {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		return nil, err
	}
	var cfg Config
	if err := json.Unmarshal(data, &cfg); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", cfgPath, err)
	}

	// Always produce the facts file cmd/go expects, even though these
	// analyzers export none: its presence is part of the protocol.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, []byte{}, 0o666); err != nil {
			return nil, err
		}
	}
	if cfg.VetxOnly {
		// Dependency pass: cmd/go only wants the (empty) facts.
		return nil, nil
	}

	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			if cfg.SucceedOnTypecheckFailure {
				return nil, nil
			}
			return nil, err
		}
		files = append(files, f)
	}

	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	tcfg := &types.Config{
		Importer: importer.ForCompiler(fset, cfg.Compiler, lookupFunc(&cfg)),
		Sizes:    types.SizesFor(cfg.Compiler, "amd64"),
		Error:    func(error) {}, // collect nothing; the compiler reports these
	}
	if cfg.GoVersion != "" {
		tcfg.GoVersion = cfg.GoVersion
	}
	pkg, err := tcfg.Check(cfg.ImportPath, fset, files, info)
	if err != nil && !cfg.SucceedOnTypecheckFailure {
		return nil, fmt.Errorf("typechecking %s: %w", cfg.ImportPath, err)
	}
	if pkg == nil {
		return nil, nil
	}

	var diags []string
	pass := &Pass{
		Fset:  fset,
		Files: files,
		Pkg:   pkg,
		Info:  info,
	}
	pass.report = func(pos token.Pos, msg string) {
		diags = append(diags, fmt.Sprintf("%s: %s", fset.Position(pos), msg))
	}
	for _, a := range analyzers {
		a.Run(pass)
	}
	sort.Strings(diags)
	return diags, nil
}

// lookupFunc opens the export data of an imported package: the source import
// path maps through ImportMap to the canonical path, whose compiled package
// file cmd/go names in PackageFile.
func lookupFunc(cfg *Config) func(path string) (io.ReadCloser, error) {
	return func(path string) (io.ReadCloser, error) {
		if canonical, ok := cfg.ImportMap[path]; ok {
			path = canonical
		}
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no package file for %q", path)
		}
		return os.Open(file)
	}
}
