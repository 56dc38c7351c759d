package main

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// hotpathAlloc enforces the dispatch-path allocation discipline: a function
// whose doc comment carries the //tracevm:hotpath directive must not contain
// constructs that can allocate — make, new, append, composite literals, or
// function literals (closures capture onto the heap) — nor copy a large
// struct by value: a receiver, parameter, result, range variable, call
// argument (a method call's receiver included), call result, or assigned or
// var-initialised value whose type is a struct of copyLimit bytes or more (a
// bytecode.Instr copied by value once cost a third of the interpreter's
// time). A deliberate site inside a hot function
// is suppressed by //tracevm:allow-alloc on the same line or the line
// directly above the construct.
//
// The check is syntactic and intraprocedural on purpose: escape analysis
// would be both unstable across toolchains and invisible in review, while
// "no allocating syntax on the marked function" is a discipline a reader can
// verify by eye.
var hotpathAlloc = &Analyzer{
	Name: "hotpathalloc",
	Run:  runHotpathAlloc,
}

const (
	hotpathDirective = "//tracevm:hotpath"
	allowDirective   = "//tracevm:allow-alloc"
)

// copyLimit is the smallest struct size, in bytes on gc/amd64, that a hot
// function may not copy: four words, so a vm.Value (two) passes and a
// trace.SOp (exactly four) or a bytecode.Instr (ten) does not.
const copyLimit = 32

var amd64Sizes = types.SizesFor("gc", "amd64")

func runHotpathAlloc(pass *Pass) {
	for _, file := range pass.Files {
		allowed := allowedLines(pass.Fset, file)
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !hasDirective(fn.Doc, hotpathDirective) {
				continue
			}
			checkHotFunc(pass, fn, allowed)
		}
	}
}

// hasDirective reports whether the doc group contains the exact directive
// comment (directives are whole-line, unspaced, per Go convention).
func hasDirective(doc *ast.CommentGroup, directive string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if strings.TrimSpace(c.Text) == directive {
			return true
		}
	}
	return false
}

// allowedLines collects the lines covered by an allow-alloc directive: the
// directive's own line and the one below it (so both trailing and preceding
// comment styles work). The directive may be followed by a space and an
// explanation of why the allocation is deliberate.
func allowedLines(fset *token.FileSet, file *ast.File) map[int]bool {
	allowed := make(map[int]bool)
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			text := strings.TrimSpace(c.Text)
			if text == allowDirective || strings.HasPrefix(text, allowDirective+" ") {
				line := fset.Position(c.Pos()).Line
				allowed[line] = true
				allowed[line+1] = true
			}
		}
	}
	return allowed
}

func checkHotFunc(pass *Pass, fn *ast.FuncDecl, allowed map[int]bool) {
	report := func(pos token.Pos, what string) {
		if allowed[pass.Fset.Position(pos).Line] {
			return
		}
		pass.Reportf(pos, "%s in //tracevm:hotpath function %s (suppress a deliberate cold path with //tracevm:allow-alloc)", what, fn.Name.Name)
	}
	qual := func(p *types.Package) string {
		if p == pass.Pkg {
			return ""
		}
		return p.Name()
	}
	copied := func(e ast.Expr, t types.Type, what string) {
		if t == nil {
			return
		}
		if _, ok := t.Underlying().(*types.Struct); !ok {
			return
		}
		if size := amd64Sizes.Sizeof(t); size >= copyLimit {
			report(e.Pos(), fmt.Sprintf("by-value %s of %s (%d bytes)", what, types.TypeString(t, qual), size))
		}
	}
	// assigned checks the right-hand sides of an assignment or var spec: an
	// index, field, dereference or variable of a large struct type is copied
	// into the target. Calls and literals are reported where they occur.
	assigned := func(rhs []ast.Expr) {
		for _, e := range rhs {
			switch ast.Unparen(e).(type) {
			case *ast.CallExpr, *ast.CompositeLit:
			default:
				copied(e, pass.Info.TypeOf(e), "assignment")
			}
		}
	}
	for _, sig := range []struct {
		list *ast.FieldList
		what string
	}{{fn.Recv, "receiver"}, {fn.Type.Params, "parameter"}, {fn.Type.Results, "result"}} {
		if sig.list == nil {
			continue
		}
		for _, field := range sig.list.List {
			copied(field.Type, pass.Info.TypeOf(field.Type), sig.what)
		}
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if name, ok := builtinName(pass.Info, n.Fun); ok {
				switch name {
				case "make", "new", "append":
					report(n.Pos(), "call to "+name)
				}
				return true
			}
			if tv, ok := pass.Info.Types[n.Fun]; ok && tv.IsType() {
				return true // a conversion, not a call
			}
			if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok {
				if s := pass.Info.Selections[sel]; s != nil && s.Kind() == types.MethodVal {
					copied(sel.X, s.Obj().Type().(*types.Signature).Recv().Type(), "receiver")
				}
			}
			for _, arg := range n.Args {
				copied(arg, pass.Info.TypeOf(arg), "argument")
			}
			// The callee need not be hot for its by-value result to be a copy
			// here.
			if res, ok := pass.Info.TypeOf(n).(*types.Tuple); ok {
				for i := 0; i < res.Len(); i++ {
					copied(n, res.At(i).Type(), "call result")
				}
			} else {
				copied(n, pass.Info.TypeOf(n), "call result")
			}
		case *ast.AssignStmt:
			assigned(n.Rhs)
		case *ast.ValueSpec:
			assigned(n.Values)
		case *ast.RangeStmt:
			for _, v := range []ast.Expr{n.Key, n.Value} {
				if id, ok := v.(*ast.Ident); v != nil && !(ok && id.Name == "_") {
					copied(v, pass.Info.TypeOf(v), "range variable")
				}
			}
		case *ast.CompositeLit:
			report(n.Pos(), "composite literal")
			// Nested literals would double-report; the outermost site is
			// the one to fix.
			return false
		case *ast.FuncLit:
			report(n.Pos(), "function literal")
			return false
		}
		return true
	})
}

// builtinName resolves fun to a predeclared builtin function name, seeing
// through parentheses; user-defined functions named "make" etc. do not count.
func builtinName(info *types.Info, fun ast.Expr) (string, bool) {
	fun = ast.Unparen(fun)
	id, ok := fun.(*ast.Ident)
	if !ok {
		return "", false
	}
	if _, ok := info.Uses[id].(*types.Builtin); !ok {
		return "", false
	}
	return id.Name, true
}
