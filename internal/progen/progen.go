// Package progen generates random, deterministic, terminating MiniJava
// programs for differential testing: every generated program must produce
// identical output under the per-instruction engine, the threaded block
// engine, and trace dispatch (measurement and deployment modes). Divergence
// anywhere in the pipeline — compiler, verifier, engines, profiler, trace
// cache — surfaces as a concrete failing program.
//
// The generator is grammar-directed with hard bounds: loops have constant
// trip counts and read-only induction variables, functions only call
// earlier functions (no recursion), divisors are forced nonzero, and the
// only exceptions thrown are caught — so generated programs always
// terminate and never trap.
package progen

import (
	"fmt"
	"math/rand"
	"strings"
)

// Config bounds the generated program.
type Config struct {
	// Funcs is the number of helper functions (default 3).
	Funcs int
	// MaxStmtsPerBlock bounds block length (default 5).
	MaxStmtsPerBlock int
	// MaxDepth bounds statement nesting (default 3).
	MaxDepth int
	// LoopBound is the constant trip count of generated loops (default 8).
	LoopBound int
}

func (c *Config) fill() {
	if c.Funcs <= 0 {
		c.Funcs = 3
	}
	if c.MaxStmtsPerBlock <= 0 {
		c.MaxStmtsPerBlock = 5
	}
	if c.MaxDepth <= 0 {
		c.MaxDepth = 3
	}
	if c.LoopBound <= 0 {
		c.LoopBound = 8
	}
}

// Generate produces one program from the seed.
func Generate(seed int64, conf Config) string {
	conf.fill()
	g := &gen{r: rand.New(rand.NewSource(seed)), conf: conf}
	return g.program()
}

type gen struct {
	r    *rand.Rand
	conf Config

	locals []string // assignable int locals in scope
	ro     []string // read-only locals (loop variables): readable, never assigned
	funcs  int      // number of helper functions available to call
	depth  int
	inLoop bool
}

func (g *gen) program() string {
	var b strings.Builder
	b.WriteString("class Err { int code; void init(int c) { code = c; } }\n")
	b.WriteString("class Main {\n")
	for i := 0; i < g.conf.Funcs; i++ {
		g.funcs = i // a function may call only earlier functions: no recursion
		g.fn(&b, i)
	}
	g.funcs = g.conf.Funcs
	g.mainFn(&b)
	b.WriteString("}\n")
	return b.String()
}

// fn emits "static int f<i>(int a, int b)".
func (g *gen) fn(b *strings.Builder, i int) {
	fmt.Fprintf(b, "  static int f%d(int a, int b) {\n", i)
	g.locals = []string{"a", "b"}
	g.ro = nil
	g.depth = 0
	body := g.block(2)
	b.WriteString(body)
	fmt.Fprintf(b, "    return %s;\n  }\n", g.expr(2))
}

func (g *gen) mainFn(b *strings.Builder) {
	b.WriteString("  static void main() {\n")
	g.locals = []string{}
	g.ro = nil
	g.depth = 0
	// Seed locals.
	n := g.r.Intn(3) + 2
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("v%d", i)
		fmt.Fprintf(b, "    int %s = %d;\n", name, g.r.Intn(199)-99)
		g.locals = append(g.locals, name)
	}
	b.WriteString(g.block(2))
	// Print every local so all effects are observable.
	for _, l := range g.locals {
		fmt.Fprintf(b, "    Sys.printlnInt(%s);\n", l)
	}
	b.WriteString("  }\n")
}

// block emits up to MaxStmtsPerBlock statements.
func (g *gen) block(indent int) string {
	var b strings.Builder
	n := g.r.Intn(g.conf.MaxStmtsPerBlock) + 1
	for i := 0; i < n; i++ {
		b.WriteString(g.stmt(indent))
	}
	return b.String()
}

func (g *gen) pad(indent int) string { return strings.Repeat("  ", indent) }

func (g *gen) stmt(indent int) string {
	if g.depth >= g.conf.MaxDepth {
		return g.assign(indent)
	}
	switch g.r.Intn(10) {
	case 0, 1, 2, 3:
		return g.assign(indent)
	case 4:
		return g.ifStmt(indent)
	case 5:
		return g.forStmt(indent)
	case 6:
		return g.switchStmt(indent)
	case 7:
		return g.tryStmt(indent)
	case 8:
		if g.inLoop {
			// Guarded continue/break keeps loops terminating (the loop
			// variable advances in the header).
			if g.r.Intn(2) == 0 {
				return g.pad(indent) + "if (" + g.cond() + ") { continue; }\n"
			}
			return g.pad(indent) + "if (" + g.cond() + ") { break; }\n"
		}
		return g.assign(indent)
	default:
		return g.assign(indent)
	}
}

// assign mutates a random local (or declares a new one).
func (g *gen) assign(indent int) string {
	if len(g.locals) == 0 || g.r.Intn(6) == 0 {
		name := fmt.Sprintf("t%d_%d", g.depth, g.r.Intn(1000))
		// Avoid collisions: linear scan is fine at this scale.
		for _, l := range g.locals {
			if l == name {
				return g.assign(indent)
			}
		}
		// Generate the initializer before the name enters scope: a
		// declaration must not reference itself.
		init := g.expr(2)
		g.locals = append(g.locals, name)
		return fmt.Sprintf("%sint %s = %s;\n", g.pad(indent), name, init)
	}
	l := g.locals[g.r.Intn(len(g.locals))]
	return fmt.Sprintf("%s%s = %s;\n", g.pad(indent), l, g.expr(2))
}

// scoped emits a nested block and drops any locals it declared, mirroring
// MiniJava's block scoping.
func (g *gen) scoped(indent int) string {
	saved := len(g.locals)
	savedRO := len(g.ro)
	body := g.block(indent)
	g.locals = g.locals[:saved]
	g.ro = g.ro[:savedRO]
	return body
}

func (g *gen) ifStmt(indent int) string {
	g.depth++
	defer func() { g.depth-- }()
	s := g.pad(indent) + "if (" + g.cond() + ") {\n" + g.scoped(indent+1) + g.pad(indent) + "}"
	if g.r.Intn(2) == 0 {
		s += " else {\n" + g.scoped(indent+1) + g.pad(indent) + "}"
	}
	return s + "\n"
}

func (g *gen) forStmt(indent int) string {
	g.depth++
	wasInLoop := g.inLoop
	g.inLoop = true
	defer func() { g.depth--; g.inLoop = wasInLoop }()
	iv := fmt.Sprintf("i%d_%d", g.depth, g.r.Intn(1000))
	bound := g.r.Intn(g.conf.LoopBound) + 2
	savedLocals := len(g.locals)
	savedRO := len(g.ro)
	g.ro = append(g.ro, iv) // readable in the body, but never assignable
	body := g.block(indent + 1)
	s := fmt.Sprintf("%sfor (int %s = 0; %s < %d; %s = %s + 1) {\n%s%s}\n",
		g.pad(indent), iv, iv, bound, iv, iv, body, g.pad(indent))
	g.locals = g.locals[:savedLocals]
	g.ro = g.ro[:savedRO]
	return s
}

func (g *gen) switchStmt(indent int) string {
	g.depth++
	defer func() { g.depth-- }()
	tag := g.expr(1)
	n := g.r.Intn(3) + 2
	var b strings.Builder
	fmt.Fprintf(&b, "%sswitch ((%s) %% 7) {\n", g.pad(indent), tag)
	used := map[int]bool{}
	for i := 0; i < n; i++ {
		v := g.r.Intn(13) - 6
		if used[v] {
			continue
		}
		used[v] = true
		fmt.Fprintf(&b, "%scase %d:\n%s", g.pad(indent), v, g.scoped(indent+1))
		if g.r.Intn(3) != 0 { // occasional fallthrough
			fmt.Fprintf(&b, "%s  break;\n", g.pad(indent))
		}
	}
	if g.r.Intn(2) == 0 {
		fmt.Fprintf(&b, "%sdefault:\n%s", g.pad(indent), g.scoped(indent+1))
	}
	fmt.Fprintf(&b, "%s}\n", g.pad(indent))
	return b.String()
}

func (g *gen) tryStmt(indent int) string {
	g.depth++
	defer func() { g.depth-- }()
	var b strings.Builder
	saved := len(g.locals)
	fmt.Fprintf(&b, "%stry {\n%s", g.pad(indent), g.block(indent+1))
	if g.r.Intn(2) == 0 {
		fmt.Fprintf(&b, "%s  if (%s) { throw new Err(%s); }\n", g.pad(indent), g.cond(), g.expr(1))
	}
	g.locals = g.locals[:saved] // try-body locals are out of scope in catch
	ev := fmt.Sprintf("e%d_%d", g.depth, g.r.Intn(1000))
	fmt.Fprintf(&b, "%s} catch (Err %s) {\n", g.pad(indent), ev)
	if len(g.locals) > 0 {
		l := g.locals[g.r.Intn(len(g.locals))]
		fmt.Fprintf(&b, "%s  %s = %s + %s.code;\n", g.pad(indent), l, l, ev)
	}
	fmt.Fprintf(&b, "%s}\n", g.pad(indent))
	return b.String()
}

// cond produces a boolean expression.
func (g *gen) cond() string {
	ops := []string{"<", "<=", ">", ">=", "==", "!="}
	c := fmt.Sprintf("(%s) %s (%s)", g.expr(1), ops[g.r.Intn(len(ops))], g.expr(1))
	if g.r.Intn(4) == 0 {
		join := "&&"
		if g.r.Intn(2) == 0 {
			join = "||"
		}
		c = fmt.Sprintf("%s %s (%s)", c, join, g.cond())
	}
	return c
}

// expr produces an int expression of bounded depth. Division and modulus
// get a forced-nonzero divisor.
func (g *gen) expr(depth int) string {
	if depth <= 0 || g.r.Intn(4) == 0 {
		return g.atom()
	}
	switch g.r.Intn(9) {
	case 0:
		return fmt.Sprintf("(%s + %s)", g.expr(depth-1), g.expr(depth-1))
	case 1:
		return fmt.Sprintf("(%s - %s)", g.expr(depth-1), g.expr(depth-1))
	case 2:
		return fmt.Sprintf("(%s * %s)", g.expr(depth-1), g.expr(depth-1))
	case 3:
		return fmt.Sprintf("(%s / ((%s & 15) + 1))", g.expr(depth-1), g.expr(depth-1))
	case 4:
		return fmt.Sprintf("(%s %% ((%s & 15) + 1))", g.expr(depth-1), g.expr(depth-1))
	case 5:
		return fmt.Sprintf("(%s ^ %s)", g.expr(depth-1), g.expr(depth-1))
	case 6:
		return fmt.Sprintf("(%s << %d)", g.expr(depth-1), g.r.Intn(8))
	case 7:
		return fmt.Sprintf("(%s >> %d)", g.expr(depth-1), g.r.Intn(8))
	default:
		if g.funcs > 0 {
			return fmt.Sprintf("f%d(%s, %s)", g.r.Intn(g.funcs), g.expr(depth-1), g.expr(depth-1))
		}
		return g.atom()
	}
}

func (g *gen) atom() string {
	readable := len(g.locals) + len(g.ro)
	if readable > 0 && g.r.Intn(3) != 0 {
		k := g.r.Intn(readable)
		if k < len(g.locals) {
			return g.locals[k]
		}
		return g.ro[k-len(g.locals)]
	}
	return fmt.Sprintf("%d", g.r.Intn(399)-199)
}
