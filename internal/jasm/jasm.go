// Package jasm implements a textual assembler for the bytecode ISA. It is
// the workhorse of the test suite and of small hand-written programs; the
// MiniJava compiler is the production frontend.
//
// Syntax (line oriented; ';' and '//' start comments):
//
//	.class Point                 declare a class
//	.super Shape                 optional superclass (inside .class)
//	.field x int                 instance field (int|float|ref)
//	.field static count int      static field
//	.method static main () void  begin a method
//	.locals 4                    locals array size (default: argument count)
//	.native name (int) float math_sqrt   native method binding
//	.abstract area () float      abstract method
//	.end                         end method or class
//	.entry Main main             program entry point
//
// Method bodies contain labels ("loop:") and instructions. Operands:
//
//	iconst 42          fconst 3.14        sconst "hello"
//	iload 0            iinc 2 -1
//	goto loop          if_icmplt loop
//	tableswitch 0 defaultL a b c          (low, default label, targets)
//	lookupswitch defaultL 1:one 5:five    (default label, key:label pairs)
//	invokestatic Main.helper
//	invokevirtual Shape.area
//	getfield Point.x   putstatic Main.count
//	new Point          instanceof Shape   checkcast Shape
//	newarray int       (int|float|ref|byte)
package jasm

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/bytecode"
	"repro/internal/classfile"
)

// Assemble parses jasm source into a linked program.
func Assemble(src string) (*classfile.Program, error) {
	a := &asm{b: classfile.NewBuilder()}
	if err := a.run(src); err != nil {
		return nil, err
	}
	return a.b.Build()
}

// AssembleUnlinked parses jasm source but skips linking, so Verify can
// report every finding (warnings included) on a program Link would refuse,
// and tests can target link-time failures.
func AssembleUnlinked(src string) (*classfile.Program, error) {
	a := &asm{b: classfile.NewBuilder()}
	if err := a.run(src); err != nil {
		return nil, err
	}
	return a.b.Program(), nil
}

type asm struct {
	b *classfile.Builder

	class  *classfile.ClassBuilder
	cname  string
	method *classfile.Method

	enc     *bytecode.Encoder
	labels  map[string]uint32
	fixups  []fixup
	catches []pendingCatch
	line    int
	started bool // method has locals directive processed or code emitted
}

// pendingCatch is a .catch directive awaiting label resolution.
type pendingCatch struct {
	class            string // "*" for catch-all
	from, to, target string
	line             int
}

type fixup struct {
	pc     uint32
	label  string
	line   int
	swIdx  int // -2: plain branch; -1: switch default; >=0: switch target i
	isSwch bool
}

func (a *asm) errf(format string, args ...any) error {
	return fmt.Errorf("jasm: line %d: %s", a.line, fmt.Sprintf(format, args...))
}

func (a *asm) run(src string) error {
	for i, raw := range strings.Split(src, "\n") {
		a.line = i + 1
		line := stripComment(raw)
		toks, err := tokenize(line)
		if err != nil {
			return a.errf("%v", err)
		}
		if len(toks) == 0 {
			continue
		}
		if err := a.statement(toks); err != nil {
			return err
		}
	}
	if a.method != nil {
		return a.errf("unterminated method %q", a.method.Name)
	}
	if a.class != nil {
		return a.errf("unterminated class %q", a.cname)
	}
	return nil
}

func stripComment(line string) string {
	inStr := false
	for i := 0; i < len(line); i++ {
		switch {
		case line[i] == '"' && (i == 0 || line[i-1] != '\\'):
			inStr = !inStr
		case !inStr && line[i] == ';':
			return line[:i]
		case !inStr && line[i] == '/' && i+1 < len(line) && line[i+1] == '/':
			return line[:i]
		}
	}
	return line
}

// tokenize splits a line into tokens, keeping quoted strings as single
// tokens (with quotes).
func tokenize(line string) ([]string, error) {
	var toks []string
	i := 0
	for i < len(line) {
		c := line[i]
		if c == ' ' || c == '\t' || c == '\r' {
			i++
			continue
		}
		if c == '"' {
			j := i + 1
			for j < len(line) && (line[j] != '"' || line[j-1] == '\\') {
				j++
			}
			if j >= len(line) {
				return nil, fmt.Errorf("unterminated string literal")
			}
			toks = append(toks, line[i:j+1])
			i = j + 1
			continue
		}
		j := i
		for j < len(line) && line[j] != ' ' && line[j] != '\t' && line[j] != '\r' {
			j++
		}
		toks = append(toks, line[i:j])
		i = j
	}
	return toks, nil
}

func (a *asm) statement(toks []string) error {
	head := toks[0]
	switch {
	case strings.HasPrefix(head, "."):
		return a.directive(head, toks[1:])
	case strings.HasSuffix(head, ":"):
		if a.method == nil {
			return a.errf("label outside method")
		}
		name := strings.TrimSuffix(head, ":")
		if name == "" {
			return a.errf("empty label")
		}
		if _, dup := a.labels[name]; dup {
			return a.errf("duplicate label %q", name)
		}
		a.labels[name] = a.enc.PC()
		return a.instructionSeq(toks[1:])
	default:
		if a.method == nil {
			return a.errf("instruction outside method")
		}
		return a.instructionSeq(toks)
	}
}

// instructionSeq assembles one or more instructions from a token run; fixed
// operand arities make multiple instructions per line unambiguous. Switch
// instructions have variable arity and must be last on their line.
func (a *asm) instructionSeq(toks []string) error {
	for len(toks) > 0 {
		mnemonic := toks[0]
		op, ok := bytecode.OpByName(mnemonic)
		if !ok {
			return a.errf("unknown instruction %q", mnemonic)
		}
		var n int
		switch bytecode.InfoOf(op).Operand {
		case bytecode.KindNone:
			n = 0
		case bytecode.KindIInc:
			n = 2
		case bytecode.KindTableSwitch, bytecode.KindLookupSwitch:
			n = len(toks) - 1
		default:
			n = 1
		}
		if len(toks)-1 < n {
			return a.errf("%s needs %d operand(s)", mnemonic, n)
		}
		if err := a.instruction(mnemonic, toks[1:1+n]); err != nil {
			return err
		}
		toks = toks[1+n:]
	}
	return nil
}

func (a *asm) directive(name string, args []string) error {
	switch name {
	case ".class":
		if a.class != nil {
			return a.errf(".class inside class")
		}
		if len(args) != 1 {
			return a.errf(".class takes one name")
		}
		a.class = a.b.Class(args[0])
		a.cname = args[0]
		return nil
	case ".super":
		if a.class == nil || a.method != nil {
			return a.errf(".super outside class header")
		}
		if len(args) != 1 {
			return a.errf(".super takes one name")
		}
		a.class.Extends(args[0])
		return nil
	case ".field":
		if a.class == nil || a.method != nil {
			return a.errf(".field outside class")
		}
		static := false
		if len(args) > 0 && args[0] == "static" {
			static = true
			args = args[1:]
		}
		if len(args) != 2 {
			return a.errf(".field [static] name type")
		}
		t, err := parseType(args[1], false)
		if err != nil {
			return a.errf("%v", err)
		}
		if static {
			a.class.StaticField(args[0], t)
		} else {
			a.class.Field(args[0], t)
		}
		return nil
	case ".method", ".native", ".abstract":
		if a.class == nil {
			return a.errf("%s outside class", name)
		}
		if a.method != nil {
			return a.errf("%s inside method", name)
		}
		return a.beginMethod(name, args)
	case ".locals":
		if a.method == nil {
			return a.errf(".locals outside method")
		}
		if len(args) != 1 {
			return a.errf(".locals takes one count")
		}
		n, err := strconv.Atoi(args[0])
		if err != nil || n < 0 {
			return a.errf("bad locals count %q", args[0])
		}
		if n > a.method.MaxLocals {
			a.method.MaxLocals = n
		}
		return nil
	case ".catch":
		// .catch <Class|*> from <label> to <label> using <label>
		if a.method == nil {
			return a.errf(".catch outside method")
		}
		if len(args) != 7 || args[1] != "from" || args[3] != "to" || args[5] != "using" {
			return a.errf(".catch Class|* from L1 to L2 using L3")
		}
		a.catches = append(a.catches, pendingCatch{
			class: args[0], from: args[2], to: args[4], target: args[6], line: a.line,
		})
		return nil
	case ".end":
		switch {
		case a.method != nil:
			return a.endMethod()
		case a.class != nil:
			a.class = nil
			a.cname = ""
			return nil
		default:
			return a.errf(".end with nothing open")
		}
	case ".entry":
		if len(args) != 2 {
			return a.errf(".entry takes class and method names")
		}
		a.b.SetEntry(args[0], args[1])
		return nil
	}
	return a.errf("unknown directive %s", name)
}

func parseType(s string, allowVoid bool) (classfile.Type, error) {
	switch s {
	case "int":
		return classfile.TInt, nil
	case "float":
		return classfile.TFloat, nil
	case "ref":
		return classfile.TRef, nil
	case "void":
		if allowVoid {
			return classfile.TVoid, nil
		}
	}
	return 0, fmt.Errorf("bad type %q", s)
}

// beginMethod parses: [static] name ( types... ) ret [nativename]
func (a *asm) beginMethod(kind string, args []string) error {
	static := false
	if len(args) > 0 && args[0] == "static" {
		static = true
		args = args[1:]
	}
	if len(args) < 3 {
		return a.errf("%s [static] name ( types ) ret", kind)
	}
	mname := args[0]
	rest := args[1:]
	if rest[0] != "(" {
		// Tolerate "(int" style by re-splitting parens.
		rest = resplitParens(rest)
		if len(rest) == 0 || rest[0] != "(" {
			return a.errf("expected ( after method name")
		}
	}
	close := -1
	for i, t := range rest {
		if t == ")" {
			close = i
			break
		}
	}
	if close < 0 {
		return a.errf("missing ) in method signature")
	}
	var params []classfile.Type
	for _, t := range rest[1:close] {
		pt, err := parseType(t, false)
		if err != nil {
			return a.errf("%v", err)
		}
		params = append(params, pt)
	}
	after := rest[close+1:]
	if len(after) < 1 {
		return a.errf("missing return type")
	}
	ret, err := parseType(after[0], true)
	if err != nil {
		return a.errf("%v", err)
	}
	after = after[1:]

	switch kind {
	case ".abstract":
		if static {
			return a.errf("abstract methods cannot be static")
		}
		if len(after) != 0 {
			return a.errf("unexpected tokens after abstract signature")
		}
		a.class.AbstractMethod(mname, params, ret)
		return nil
	case ".native":
		if len(after) != 1 {
			return a.errf(".native needs a builtin name")
		}
		a.class.NativeMethod(mname, params, ret, static, after[0])
		return nil
	}
	if len(after) != 0 {
		return a.errf("unexpected tokens after method signature")
	}
	m := a.class.Method(mname, params, ret, static)
	m.MaxLocals = m.NArgs()
	a.method = m
	a.enc = bytecode.NewEncoder()
	a.labels = make(map[string]uint32)
	a.fixups = nil
	return nil
}

// resplitParens separates '(' and ')' glued to neighbouring tokens.
func resplitParens(toks []string) []string {
	var out []string
	for _, t := range toks {
		for len(t) > 0 {
			if t[0] == '(' || t[0] == ')' {
				out = append(out, string(t[0]))
				t = t[1:]
				continue
			}
			j := strings.IndexAny(t, "()")
			if j < 0 {
				out = append(out, t)
				break
			}
			out = append(out, t[:j])
			t = t[j:]
		}
	}
	return out
}

func (a *asm) endMethod() error {
	for _, f := range a.fixups {
		target, ok := a.labels[f.label]
		if !ok {
			return fmt.Errorf("jasm: line %d: undefined label %q", f.line, f.label)
		}
		var err error
		if f.isSwch {
			err = a.enc.FixupSwitchTarget(f.pc, f.swIdx, target)
		} else {
			err = a.enc.Fixup(f.pc, target)
		}
		if err != nil {
			return fmt.Errorf("jasm: line %d: %v", f.line, err)
		}
	}
	for _, c := range a.catches {
		resolve := func(name string) (uint32, error) {
			pc, ok := a.labels[name]
			if !ok {
				return 0, fmt.Errorf("jasm: line %d: undefined label %q in .catch", c.line, name)
			}
			return pc, nil
		}
		from, err := resolve(c.from)
		if err != nil {
			return err
		}
		to, err := resolve(c.to)
		if err != nil {
			return err
		}
		target, err := resolve(c.target)
		if err != nil {
			return err
		}
		idx := int32(-1)
		if c.class != "*" {
			idx = int32(a.b.ClassIndex(c.class))
		}
		a.method.Handlers = append(a.method.Handlers, classfile.Handler{
			StartPC: from, EndPC: to, HandlerPC: target, ClassIdx: idx,
		})
	}
	a.method.Code = a.enc.Bytes()
	a.method = nil
	a.enc = nil
	a.labels = nil
	a.fixups = nil
	a.catches = nil
	return nil
}

func (a *asm) instruction(mnemonic string, args []string) error {
	op, ok := bytecode.OpByName(mnemonic)
	if !ok {
		return a.errf("unknown instruction %q", mnemonic)
	}
	in := bytecode.Instr{Op: op}
	info := bytecode.InfoOf(op)
	switch info.Operand {
	case bytecode.KindNone:
		if len(args) != 0 {
			return a.errf("%s takes no operands", mnemonic)
		}
	case bytecode.KindU16:
		return a.u16Instr(op, mnemonic, args)
	case bytecode.KindI32:
		if len(args) != 1 {
			return a.errf("%s takes one integer", mnemonic)
		}
		v, err := strconv.ParseInt(args[0], 0, 64)
		if err != nil {
			return a.errf("bad integer %q", args[0])
		}
		if v < -1<<31 || v > 1<<31-1 {
			return a.errf("constant %d out of 32-bit range (use wide constants via arithmetic)", v)
		}
		in.A = int32(v)
	case bytecode.KindF64:
		if len(args) != 1 {
			return a.errf("%s takes one float", mnemonic)
		}
		v, err := strconv.ParseFloat(args[0], 64)
		if err != nil {
			return a.errf("bad float %q", args[0])
		}
		in.F = v
	case bytecode.KindBranch:
		if len(args) != 1 {
			return a.errf("%s takes one label", mnemonic)
		}
		pc, err := a.enc.Emit(in)
		if err != nil {
			return a.errf("%v", err)
		}
		a.fixups = append(a.fixups, fixup{pc: pc, label: args[0], line: a.line, swIdx: -2})
		return nil
	case bytecode.KindIInc:
		if len(args) != 2 {
			return a.errf("iinc takes slot and delta")
		}
		slot, err1 := strconv.Atoi(args[0])
		delta, err2 := strconv.Atoi(args[1])
		if err1 != nil || err2 != nil {
			return a.errf("bad iinc operands")
		}
		in.A = int32(slot)
		in.B = int32(delta)
		a.growLocals(slot)
	case bytecode.KindElem:
		if len(args) != 1 {
			return a.errf("newarray takes an element kind")
		}
		switch args[0] {
		case "int":
			in.A = bytecode.ElemInt
		case "float":
			in.A = bytecode.ElemFloat
		case "ref":
			in.A = bytecode.ElemRef
		case "byte":
			in.A = bytecode.ElemByte
		default:
			return a.errf("bad element kind %q", args[0])
		}
	case bytecode.KindTableSwitch:
		return a.tableSwitch(args)
	case bytecode.KindLookupSwitch:
		return a.lookupSwitch(args)
	}
	if _, err := a.enc.Emit(in); err != nil {
		return a.errf("%v", err)
	}
	return nil
}

// u16Instr assembles instructions with a u16 operand: local slots, string
// constants, class names, and member references.
func (a *asm) u16Instr(op bytecode.Op, mnemonic string, args []string) error {
	in := bytecode.Instr{Op: op}
	switch op {
	case bytecode.ILoad, bytecode.IStore, bytecode.FLoad, bytecode.FStore,
		bytecode.ALoad, bytecode.AStore:
		if len(args) != 1 {
			return a.errf("%s takes a slot", mnemonic)
		}
		slot, err := strconv.Atoi(args[0])
		if err != nil || slot < 0 {
			return a.errf("bad slot %q", args[0])
		}
		in.A = int32(slot)
		a.growLocals(slot)
	case bytecode.SConst:
		if len(args) != 1 || !strings.HasPrefix(args[0], `"`) {
			return a.errf("sconst takes a string literal")
		}
		s, err := strconv.Unquote(args[0])
		if err != nil {
			return a.errf("bad string literal: %v", err)
		}
		in.A = int32(a.b.String(s))
	case bytecode.New, bytecode.InstanceOf, bytecode.CheckCast:
		if len(args) != 1 {
			return a.errf("%s takes a class name", mnemonic)
		}
		in.A = int32(a.b.ClassIndex(args[0]))
	case bytecode.InvokeStatic, bytecode.InvokeVirtual, bytecode.InvokeSpecial:
		cls, member, err := splitMember(args, mnemonic)
		if err != nil {
			return a.errf("%v", err)
		}
		kind := map[bytecode.Op]classfile.RefKind{
			bytecode.InvokeStatic:  classfile.RefStatic,
			bytecode.InvokeVirtual: classfile.RefVirtual,
			bytecode.InvokeSpecial: classfile.RefSpecial,
		}[op]
		in.A = int32(a.b.MethodRef(cls, member, kind))
	case bytecode.GetField, bytecode.PutField:
		cls, member, err := splitMember(args, mnemonic)
		if err != nil {
			return a.errf("%v", err)
		}
		in.A = int32(a.b.FieldRef(cls, member, false))
	case bytecode.GetStatic, bytecode.PutStatic:
		cls, member, err := splitMember(args, mnemonic)
		if err != nil {
			return a.errf("%v", err)
		}
		in.A = int32(a.b.FieldRef(cls, member, true))
	default:
		return a.errf("unhandled u16 instruction %s", mnemonic)
	}
	if _, err := a.enc.Emit(in); err != nil {
		return a.errf("%v", err)
	}
	return nil
}

func (a *asm) growLocals(slot int) {
	if slot+1 > a.method.MaxLocals {
		a.method.MaxLocals = slot + 1
	}
}

func splitMember(args []string, mnemonic string) (cls, member string, err error) {
	if len(args) != 1 {
		return "", "", fmt.Errorf("%s takes Class.member", mnemonic)
	}
	i := strings.LastIndex(args[0], ".")
	if i <= 0 || i == len(args[0])-1 {
		return "", "", fmt.Errorf("%s operand %q is not Class.member", mnemonic, args[0])
	}
	return args[0][:i], args[0][i+1:], nil
}

// tableSwitch: tableswitch <low> <defaultLabel> <target>...
func (a *asm) tableSwitch(args []string) error {
	if len(args) < 3 {
		return a.errf("tableswitch low default targets...")
	}
	low, err := strconv.ParseInt(args[0], 0, 32)
	if err != nil {
		return a.errf("bad tableswitch low %q", args[0])
	}
	in := bytecode.Instr{Op: bytecode.TableSwitch, A: int32(low), Targets: make([]uint32, len(args)-2)}
	pc, err := a.enc.Emit(in)
	if err != nil {
		return a.errf("%v", err)
	}
	a.fixups = append(a.fixups, fixup{pc: pc, label: args[1], line: a.line, swIdx: -1, isSwch: true})
	for i, lbl := range args[2:] {
		a.fixups = append(a.fixups, fixup{pc: pc, label: lbl, line: a.line, swIdx: i, isSwch: true})
	}
	return nil
}

// lookupSwitch: lookupswitch <defaultLabel> <key>:<label>...
func (a *asm) lookupSwitch(args []string) error {
	if len(args) < 1 {
		return a.errf("lookupswitch default key:label...")
	}
	n := len(args) - 1
	in := bytecode.Instr{Op: bytecode.LookupSwitch, Keys: make([]int32, n), Targets: make([]uint32, n)}
	labels := make([]string, n)
	for i, pair := range args[1:] {
		j := strings.Index(pair, ":")
		if j <= 0 {
			return a.errf("bad lookupswitch pair %q", pair)
		}
		k, err := strconv.ParseInt(pair[:j], 0, 32)
		if err != nil {
			return a.errf("bad lookupswitch key %q", pair[:j])
		}
		in.Keys[i] = int32(k)
		labels[i] = pair[j+1:]
	}
	pc, err := a.enc.Emit(in)
	if err != nil {
		return a.errf("%v", err)
	}
	a.fixups = append(a.fixups, fixup{pc: pc, label: args[0], line: a.line, swIdx: -1, isSwch: true})
	for i, lbl := range labels {
		a.fixups = append(a.fixups, fixup{pc: pc, label: lbl, line: a.line, swIdx: i, isSwch: true})
	}
	return nil
}
