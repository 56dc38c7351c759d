package valueflow

import (
	"slices"

	"repro/internal/analysis/arena"
	"repro/internal/bytecode"
	"repro/internal/cfg"
	"repro/internal/classfile"
)

// msum is the interprocedural summary of one method: the join of argument
// values over every abstract call site, and the join of returned values.
// Both only grow, so the driver's fixpoint is monotone.
type msum struct {
	reached   bool
	args      []absVal
	argVisits uint32
	ret       absVal
	retOK     bool
	retVisits uint32
	// retSeen means some analyzed path returns; until then the return
	// sites of callers stay unreached (a callee that provably loops or
	// always throws never resumes its caller).
	retSeen bool
	// degraded marks a method whose own analysis failed (signature-confused
	// dispatch at one of its call sites, an evaluator bail, an oversized
	// frame). Its blocks keep zero claims beyond reachability, every callee
	// it could invoke has been seeded with top arguments, and its return
	// effect is the conservative "returns an unknown value of the declared
	// type" — so the failure stays local instead of discarding the whole
	// program's facts.
	degraded bool
	callers  map[int]struct{}
}

func (s *msum) addCaller(id int) {
	if s.callers == nil {
		s.callers = make(map[int]struct{}, 4)
	}
	s.callers[id] = struct{}{}
}

// iproc drives the bounded interprocedural fixpoint: a worklist of method
// IDs, re-analyzing a method whenever its argument join widens or a
// callee's return join changes.
type iproc struct {
	p        *cfg.ProgramCFG
	prog     *classfile.Program
	sums     []*msum
	queue    []int
	inQ      []bool
	vtargets map[int][]*classfile.Method
	// codes caches each method's decoded instructions for the whole
	// Compute; ma is the one method analysis every worklist visit reuses,
	// so its scratch and arena memory is allocated once. Each successful
	// visit writes its method's block facts into facts.
	codes []*mcode
	ma    manalysis
	facts *Facts
}

// mcode is one method's code decoded once per Compute: its instructions, a
// dense pc → instruction map (index+1; 0 marks a pc that starts no
// instruction) and a dense instruction → block map (the block's index
// within the method's CFG; nil when the CFG does not partition the code).
type mcode struct {
	ins []bytecode.Instr
	at  []int32
	blk []int32
}

func (c *mcode) index(pc uint32) (int, bool) {
	if int(pc) >= len(c.at) || c.at[pc] == 0 {
		return 0, false
	}
	return int(c.at[pc]) - 1, true
}

// block returns the index of the block starting at pc; ok is false when pc
// is not a leader.
func (c *mcode) block(pc uint32) (int, bool) {
	j, ok := c.index(pc)
	if !ok || (j > 0 && c.blk[j-1] == c.blk[j]) {
		return 0, false
	}
	return int(c.blk[j]), true
}

// blocks maps each instruction to its block within mc, or returns nil when
// mc's blocks do not partition the decoded code in order.
func (c *mcode) blocks(mc *cfg.MethodCFG) []int32 {
	if mc == nil {
		return nil
	}
	blk := make([]int32, 0, len(c.ins))
	for bi, b := range mc.Blocks {
		if s, ok := c.index(b.StartPC()); !ok || s != len(blk) {
			return nil
		}
		for range b.Instrs {
			blk = append(blk, int32(bi))
		}
	}
	if len(blk) != len(c.ins) {
		return nil
	}
	return blk
}

// code returns a method's decoded code, or nil when it is undecodable or
// empty.
func (ip *iproc) code(id int) *mcode {
	c := ip.codes[id]
	if c == nil {
		c = &mcode{}
		code := ip.prog.Methods[id].Code
		if ins, err := bytecode.Decode(code); err == nil {
			c.ins = ins
			c.at = make([]int32, len(code))
			for i := range ins {
				c.at[ins[i].PC] = int32(i) + 1
			}
			c.blk = c.blocks(ip.p.Methods[id])
		}
		ip.codes[id] = c
	}
	if len(c.ins) == 0 {
		return nil
	}
	return c
}

// Compute analyzes a linked program and returns its fact table. Any input
// the analysis cannot soundly handle — unlinked programs, undecodable
// bytecode, signature-confused virtual dispatch, a fixpoint that exhausts
// its budget — degrades to the claim-free top table rather than guessing.
func Compute(p *cfg.ProgramCFG) (f *Facts) {
	if p == nil || p.Program == nil || !p.Program.Linked() || p.Program.Main == nil {
		return topFactsFor(p)
	}
	// The analyzer is exercised on adversarial inputs (fuzzing, lint of
	// unverified programs); a defect must degrade to "no claims", never
	// take down the caller.
	defer func() {
		if recover() != nil {
			f = topFactsFor(p)
		}
	}()
	ip := &iproc{
		p:        p,
		prog:     p.Program,
		sums:     make([]*msum, len(p.Program.Methods)),
		inQ:      make([]bool, len(p.Program.Methods)),
		vtargets: make(map[int][]*classfile.Method),
		codes:    make([]*mcode, len(p.Program.Methods)),
		facts:    newFacts(p.NumBlocks()),
	}
	for i := range ip.sums {
		ip.sums[i] = &msum{}
	}
	main := p.Program.Main
	ms := ip.sums[main.ID]
	ms.reached = true
	ms.args = make([]absVal, main.NArgs())
	for i, t := range argTypes(main) {
		ms.args[i] = typeVal(t)
	}
	ip.enqueue(main.ID)
	if !ip.run() {
		return topFactsFor(p)
	}
	return ip.capture()
}

// argTypes lists the local-slot types of a method's arguments, receiver
// included.
func argTypes(m *classfile.Method) []classfile.Type {
	out := make([]classfile.Type, 0, m.NArgs())
	if !m.Static {
		out = append(out, classfile.TRef)
	}
	return append(out, m.Params...)
}

func (ip *iproc) enqueue(id int) {
	if id < 0 || id >= len(ip.inQ) || ip.inQ[id] {
		return
	}
	ip.inQ[id] = true
	ip.queue = append(ip.queue, id)
}

func (ip *iproc) run() bool {
	budget := 40*len(ip.prog.Methods) + 400
	for len(ip.queue) > 0 {
		if budget <= 0 {
			return false
		}
		budget--
		id := ip.queue[len(ip.queue)-1]
		ip.queue = ip.queue[:len(ip.queue)-1]
		ip.inQ[id] = false
		m := ip.prog.Methods[id]
		if m.Native != "" || m.Abstract || len(m.Code) == 0 || ip.sums[id].degraded {
			continue
		}
		ma := ip.methodAnalysis(m)
		if ma == nil {
			// Undecodable or CFG-less code in a linked program is structural
			// damage; no per-method recovery is sound.
			return false
		}
		if !ma.run() {
			ip.degradeMethod(id)
		}
	}
	return true
}

// degradeMethod localizes an analysis failure to one method: its facts are
// dropped (capture resets its blocks to reachable with no claims), every
// method it could possibly invoke — for virtual sites, every same-slot
// method of any class, signature checks waived — is seeded with top
// arguments, and its summary reports the conservative return effect. Seeding with top is
// sound because top values claim nothing: a callee reached through a
// signature-confused dispatch may receive kind-mismatched values, but no
// fact derived from a top entry state can be falsified by them.
func (ip *iproc) degradeMethod(id int) {
	sum := ip.sums[id]
	if sum.degraded {
		return
	}
	sum.degraded = true
	if !sum.retSeen || sum.retOK {
		sum.retSeen = true
		sum.retOK = false
		sum.ret = absVal{}
		for c := range sum.callers {
			ip.enqueue(c)
		}
	}
	c := ip.code(id)
	if c == nil {
		return // already conservative: no claims, unknown return
	}
	for i := range c.ins {
		in := &c.ins[i]
		if bytecode.InfoOf(in.Op).Flow != bytecode.FlowCall {
			continue
		}
		if in.A < 0 || int(in.A) >= len(ip.prog.MethodRefs) {
			continue
		}
		for _, t := range ip.allCallees(&ip.prog.MethodRefs[in.A]) {
			if t == nil || t.Abstract || t.Native != "" {
				continue
			}
			ts := ip.sums[t.ID]
			args := make([]absVal, t.NArgs())
			for i, typ := range argTypes(t) {
				args[i] = typeVal(typ)
			}
			if ip.flowArgs(ts, args) {
				ip.enqueue(t.ID)
			}
			ts.addCaller(id)
		}
	}
}

// allCallees is calleesOf without the signature agreement requirement: the
// complete set of methods a call site could dynamically reach, used when a
// degraded caller must over-approximate its effects.
func (ip *iproc) allCallees(ref *classfile.MethodRef) []*classfile.Method {
	if ref.Kind != classfile.RefVirtual {
		return []*classfile.Method{ref.Method}
	}
	var ts []*classfile.Method
	seen := make(map[*classfile.Method]struct{})
	for _, c := range ip.prog.Classes {
		if ref.VSlot < 0 || ref.VSlot >= len(c.VTable) {
			continue
		}
		t := c.VTable[ref.VSlot]
		if _, dup := seen[t]; dup {
			continue
		}
		seen[t] = struct{}{}
		ts = append(ts, t)
	}
	return ts
}

// capture counts the reached methods and settles the facts of those that
// failed. Every other reached method's facts were written by its last
// visit, which ran against the converged summaries: a method is re-queued
// whenever its arguments widen or a callee's return changes. Unreached
// methods keep the zero-value "unreachable" claim on their blocks; a
// degraded method's blocks drop any earlier visit's claims and keep
// reachability alone.
func (ip *iproc) capture() *Facts {
	f := ip.facts
	for id, sum := range ip.sums {
		mc := ip.p.Methods[id]
		if mc == nil || !sum.reached {
			continue
		}
		f.reached++
		if !sum.degraded {
			f.analyzed++
			continue
		}
		for _, b := range mc.Blocks {
			if bf := f.Block(b.ID); bf != nil {
				*bf = BlockFacts{Reachable: true, Decided: cfg.NoBlock}
			}
		}
	}
	return f
}

// calleesOf resolves the sound dynamic target set of a call: the resolved
// method for static/special dispatch, and for virtual dispatch every
// method any class in the program exposes at the reference's vtable slot
// (the receiver's static type is unknown). ok is false when a same-slot
// method disagrees on signature — dispatch there would desynchronize the
// caller's stack, so the whole analysis degrades.
//
// The single static/special target is returned in one, the caller's
// scratch, so the common call costs no allocation.
func (ip *iproc) calleesOf(ref *classfile.MethodRef, one *[1]*classfile.Method) ([]*classfile.Method, bool) {
	if ref.Kind != classfile.RefVirtual {
		one[0] = ref.Method
		return one[:], true
	}
	if ts, ok := ip.vtargets[ref.VSlot]; ok {
		return ts, ts != nil
	}
	ts := []*classfile.Method{}
	seen := make(map[*classfile.Method]struct{})
	for _, c := range ip.prog.Classes {
		if ref.VSlot < 0 || ref.VSlot >= len(c.VTable) {
			continue
		}
		t := c.VTable[ref.VSlot]
		if _, dup := seen[t]; dup {
			continue
		}
		if !t.SameSignature(ref.Method) {
			ip.vtargets[ref.VSlot] = nil
			return nil, false
		}
		seen[t] = struct{}{}
		ts = append(ts, t)
	}
	// An empty (non-nil) set is valid: no class exposes the slot, so the
	// dispatch always traps and the call has no successors.
	ip.vtargets[ref.VSlot] = ts
	return ts, true
}

// flowArgs joins one call site's argument values into a callee's entry
// summary, reporting whether anything changed (the callee then re-runs).
func (ip *iproc) flowArgs(sum *msum, args []absVal) bool {
	if !sum.reached {
		sum.reached = true
		sum.args = append([]absVal(nil), args...)
		return true
	}
	if len(sum.args) != len(args) {
		return false
	}
	sum.argVisits++
	widen := sum.argVisits > widenAfter
	changed := false
	for i := range sum.args {
		nv := merge(sum.args[i], args[i], widen)
		if nv != sum.args[i] {
			sum.args[i] = nv
			changed = true
		}
	}
	return changed
}

// manalysis is the block-granularity fixpoint over one method, mirroring
// the verifier's worklist skeleton with the richer lattice. States are
// stored, merged and widened only at leaders (block starts, which include
// every branch and handler target); step walks a block's interior on a
// scratch state, since an interior instruction's only predecessor is the
// instruction before it. Every cycle passes through a leader, so widening
// there bounds the fixpoint.
//
// Memory: step works on the scratch state cur (and stepCond's taken edge on
// alt), whose backing arrays are reused from step to step. A state is only
// stored by flowTo's first sighting of a block, which copies it into the
// pointer-free vals/lvals arenas, so the GC never scans the stored states.
// The struct lives on iproc and is reset per method visit; the arenas are
// recycled at each reset.
type manalysis struct {
	ip     *iproc
	ev     evaluator
	m      *classfile.Method
	mc     *cfg.MethodCFG
	code   *mcode
	states []absState // per block: its entry state
	seen   []bool
	visits []uint32
	queued []bool
	work   []int
	// decided is each block's terminator outcome on its latest walk.
	decided []cfg.BlockID

	cur, alt absState
	exc      [1]absVal // a handler entry's stack: the thrown reference
	args     []absVal
	vals     arena.Arena[absVal]
	lvals    arena.Arena[lval]

	// flowed marks, per exception-table entry, the handler edges the
	// current walk has flowed with excLocals (see flowHandlers).
	flowed    []bool
	excLocals []lval
}

// methodAnalysis resets ip's method analysis for m, or returns nil when m
// has no decodable code or no CFG that matches it.
func (ip *iproc) methodAnalysis(m *classfile.Method) *manalysis {
	c := ip.code(m.ID)
	mc := ip.p.Methods[m.ID]
	if c == nil || mc == nil || c.blk == nil {
		return nil
	}
	n := len(mc.Blocks)
	ma := &ip.ma
	ma.ip = ip
	ma.ev = evaluator{prog: ip.prog}
	ma.m, ma.mc, ma.code = m, mc, c
	ma.states = arena.Zeroed(ma.states, n)
	ma.seen = arena.Zeroed(ma.seen, n)
	ma.visits = arena.Zeroed(ma.visits, n)
	ma.queued = arena.Zeroed(ma.queued, n)
	ma.decided = arena.Zeroed(ma.decided, n)
	ma.flowed = arena.Zeroed(ma.flowed, len(m.Handlers))
	ma.work = ma.work[:0]
	ma.vals.Reset()
	ma.lvals.Reset()
	return ma
}

// run computes the method's fixpoint and, when it reaches one, writes the
// method's block facts.
func (ma *manalysis) run() bool {
	na := ma.m.NArgs()
	sum := ma.ip.sums[ma.m.ID]
	if ma.m.MaxLocals < na || len(sum.args) != na || ma.m.MaxLocals > 1<<16 {
		return false
	}
	entry := &ma.cur
	entry.stack = entry.stack[:0]
	entry.locals = arena.Zeroed(entry.locals, ma.m.MaxLocals)
	for i := 0; i < na; i++ {
		entry.locals[i] = lval{v: sum.args[i], init: true}
	}
	ma.flowTo(0, entry)
	for len(ma.work) > 0 && !ma.ev.bail {
		bi := ma.work[len(ma.work)-1]
		ma.work = ma.work[:len(ma.work)-1]
		ma.queued[bi] = false
		ma.step(bi)
	}
	if ma.ev.bail {
		return false
	}
	ma.captureFacts()
	return true
}

func (ma *manalysis) enqueueBlock(bi int) {
	if !ma.queued[bi] {
		ma.queued[bi] = true
		ma.work = append(ma.work, bi)
	}
}

// flowTo merges a state into a block's entry, queueing the block when the
// merge changed anything. Integer bounds still moving after widenAfter
// revisits are widened to ±∞, bounding the fixpoint.
//
// flowTo never mutates st or anything st's slices point at: it copies st
// into the arenas on first sight and only reads it when merging. Callers
// rely on that to pass scratch states and aliased locals.
func (ma *manalysis) flowTo(bi int, st *absState) {
	if bi < 0 || bi >= len(ma.states) {
		ma.ev.fail()
		return
	}
	if !ma.seen[bi] {
		ma.seen[bi] = true
		ma.states[bi] = absState{stack: ma.vals.Copy(st.stack), locals: ma.lvals.Copy(st.locals)}
		ma.enqueueBlock(bi)
		return
	}
	cur := &ma.states[bi]
	if len(cur.stack) != len(st.stack) || len(cur.locals) != len(st.locals) {
		ma.ev.fail()
		return
	}
	ma.visits[bi]++
	widen := ma.visits[bi] > widenAfter
	changed := false
	for i := range cur.stack {
		nv := merge(cur.stack[i], st.stack[i], widen)
		if nv != cur.stack[i] {
			cur.stack[i] = nv
			changed = true
		}
	}
	for i := range cur.locals {
		nv := mergeLocal(cur.locals[i], st.locals[i], widen)
		if nv != cur.locals[i] {
			cur.locals[i] = nv
			changed = true
		}
	}
	if changed {
		ma.enqueueBlock(bi)
	}
}

func (ma *manalysis) branchTo(pc uint32, st *absState) {
	bi, ok := ma.code.block(pc)
	if !ok {
		ma.ev.fail()
		return
	}
	ma.flowTo(bi, st)
}

// step walks block bi from its entry state to its terminator on the
// scratch state cur, then flows cur to the block's successors.
func (ma *manalysis) step(bi int) {
	b := ma.mc.Blocks[bi]
	first, _ := ma.code.index(b.StartPC())
	last := first + len(b.Instrs) - 1
	st := &ma.cur
	st.copyFrom(&ma.states[bi])
	clear(ma.flowed)
	ma.decided[bi] = cfg.NoBlock
	for k := first; k < last && !ma.ev.bail; k++ {
		ma.flowHandlers(ma.code.ins[k].PC, st)
		ma.ev.exec(st, ma.code.ins[k])
	}
	in := ma.code.ins[last]
	ma.flowHandlers(in.PC, st)
	if ma.ev.bail {
		return
	}
	switch bytecode.InfoOf(in.Op).Flow {
	case bytecode.FlowNext: // a block split by a following leader
		ma.ev.exec(st, in)
		if !ma.ev.bail {
			ma.flowTo(bi+1, st)
		}
	case bytecode.FlowGoto:
		ma.branchTo(uint32(in.A), st)
	case bytecode.FlowCond:
		ma.stepCond(bi, in, st)
	case bytecode.FlowSwitch:
		ma.stepSwitch(bi, in, st)
	case bytecode.FlowCall:
		ma.stepCall(bi, in, st)
	case bytecode.FlowReturn:
		ma.stepReturn(in, st)
	case bytecode.FlowThrow:
		ma.ev.pop(st) // handler edges already flowed above
	case bytecode.FlowHalt:
		// Terminates the machine; no successors.
	default:
		ma.ev.fail()
	}
}

// flowHandlers flows the exception edges of the instruction at pc: st's
// locals go to every handler covering it, with the thrown reference as the
// sole stack operand. Only Throw transfers to a handler (traps abort the
// run), but the throw may be arbitrarily deep in callees, so every covered
// instruction — not just Throw — is a throw point. This over-approximation
// mirrors the verifier and can only weaken facts.
//
// Within one walk an edge flows once per distinct locals state. Once flowTo
// has merged locals L into a handler's entry, the entry is ⊒ L and merge is
// idempotent, so flowing L again changes nothing: a repeat only counts the
// visit, which keeps widening timing identical. A first sighting copies
// rather than merges, and merging normalises uninitialised slots, so the
// edge after a first sighting still merges once. New locals re-arm every
// edge; the marks are per handler because a try range may start mid-block.
func (ma *manalysis) flowHandlers(pc uint32, st *absState) {
	compared := false // st.locals checked against excLocals at this pc
	for hi := range ma.m.Handlers {
		h := &ma.m.Handlers[hi]
		if !h.Covers(pc) {
			continue
		}
		hb, ok := ma.code.block(h.HandlerPC)
		if !ok {
			ma.ev.fail()
			return
		}
		if !compared {
			compared = true
			if !slices.Equal(ma.excLocals, st.locals) {
				ma.excLocals = append(ma.excLocals[:0], st.locals...)
				clear(ma.flowed)
			}
		}
		if ma.flowed[hi] {
			ma.visits[hb]++
			continue
		}
		ma.flowed[hi] = ma.seen[hb]
		ma.exc[0] = nonNullRef()
		ma.flowTo(hb, &absState{stack: ma.exc[:], locals: st.locals})
	}
}

// stepCond follows only the decided edge when the outcome is known
// (sparse conditional propagation), and otherwise conditions each edge's
// state on its branch direction, skipping edges proven infeasible.
func (ma *manalysis) stepCond(bi int, in bytecode.Instr, st *absState) {
	var a, b absVal
	if bytecode.CondArity(in.Op) == 2 {
		b = ma.ev.pop(st)
		a = ma.ev.pop(st)
	} else {
		a = ma.ev.pop(st)
	}
	if ma.ev.bail {
		return
	}
	if taken, decided := condOutcome(in.Op, a, b); decided {
		if taken {
			ma.decided[bi] = ma.mc.Blocks[bi].Taken
			ma.branchTo(uint32(in.A), st)
		} else {
			ma.decided[bi] = ma.mc.Blocks[bi].FallThrough
			ma.flowTo(bi+1, st)
		}
		return
	}
	tst := &ma.alt
	tst.copyFrom(st)
	if refineBranch(tst, in.Op, a, b, true) {
		ma.branchTo(uint32(in.A), tst)
	}
	if refineBranch(st, in.Op, a, b, false) {
		ma.flowTo(bi+1, st)
	}
}

func (ma *manalysis) stepSwitch(bi int, in bytecode.Instr, st *absState) {
	key := ma.ev.pop(st)
	if ma.ev.bail {
		return
	}
	b := ma.mc.Blocks[bi]
	if n, ok := key.isIntConst(); ok {
		// A decoded switch always resolves; a NoBlock would fail in flowTo.
		ma.decided[bi], _ = b.SwitchSucc(&in, n)
		ma.flowTo(int(ma.decided[bi]-ma.mc.Entry.ID), st)
		return
	}
	if in.Op == bytecode.TableSwitch && key.kind == bytecode.KInt && len(in.Targets) > 0 {
		lo := int64(in.A)
		hi := lo + int64(len(in.Targets)) - 1
		if key.hi < lo || key.lo > hi {
			ma.decided[bi] = b.SwitchDefault
			ma.branchTo(in.Dflt, st)
			return
		}
	}
	for _, t := range in.Targets {
		ma.branchTo(t, st)
	}
	ma.branchTo(in.Dflt, st)
}

func (ma *manalysis) stepCall(bi int, in bytecode.Instr, st *absState) {
	if in.A < 0 || int(in.A) >= len(ma.ip.prog.MethodRefs) {
		ma.ev.fail()
		return
	}
	ref := &ma.ip.prog.MethodRefs[in.A]
	if ref.Method == nil {
		ma.ev.fail()
		return
	}
	na := ref.Method.NArgs()
	args := arena.Zeroed(ma.args, na)
	ma.args = args
	for i := na - 1; i >= 0; i-- {
		args[i] = ma.ev.pop(st)
	}
	if ma.ev.bail {
		return
	}
	instance := ref.Kind != classfile.RefStatic
	if instance && len(args) > 0 {
		if args[0].kind == bytecode.KRef && args[0].nl == nlNull {
			return // always traps on the null receiver; no successors
		}
		// Continuing past the call implies the receiver was non-null.
		ma.ev.provenNonNull(st, args[0])
	}
	for i := range args {
		args[i].src = noSrc
	}
	if instance && len(args) > 0 && args[0].kind == bytecode.KRef {
		args[0].nl = nlNonNull // the callee's receiver cannot be null
	}
	var one [1]*classfile.Method
	targets, ok := ma.ip.calleesOf(ref, &one)
	if !ok {
		ma.ev.fail()
		return
	}
	returns := false
	var retv absVal
	retSet := false
	joinRet := func(v absVal) {
		if retSet {
			retv = merge(retv, v, false)
		} else {
			retv, retSet = v, true
		}
	}
	for _, t := range targets {
		if t == nil || t.Abstract {
			continue // invoking an abstract method traps
		}
		if t.Native != "" {
			returns = true
			joinRet(typeVal(t.Ret))
			continue
		}
		sum := ma.ip.sums[t.ID]
		if ma.ip.flowArgs(sum, args) {
			ma.ip.enqueue(t.ID)
		}
		sum.addCaller(ma.m.ID)
		if sum.retSeen {
			returns = true
			if sum.retOK {
				joinRet(sum.ret)
			} else {
				joinRet(typeVal(t.Ret))
			}
		}
	}
	if !returns {
		return // no analyzed path returns (yet): the return site is unreached
	}
	if ref.Method.Ret != classfile.TVoid {
		if !retSet {
			retv = typeVal(ref.Method.Ret)
		}
		ma.ev.push(st, retv)
		if ma.ev.bail {
			return
		}
	}
	ma.flowTo(bi+1, st)
}

func (ma *manalysis) stepReturn(in bytecode.Instr, st *absState) {
	var v absVal
	hasVal := in.Op != bytecode.ReturnVoid
	if hasVal {
		v = ma.ev.pop(st)
		if ma.ev.bail {
			return
		}
		v.src = noSrc
	}
	sum := ma.ip.sums[ma.m.ID]
	changed := !sum.retSeen
	sum.retSeen = true
	if hasVal {
		if !sum.retOK {
			sum.ret, sum.retOK = v, true
			changed = true
		} else {
			sum.retVisits++
			nv := merge(sum.ret, v, sum.retVisits > widenAfter)
			if nv != sum.ret {
				sum.ret = nv
				changed = true
			}
		}
	}
	if changed {
		for c := range sum.callers {
			ma.ip.enqueue(c)
		}
	}
}

// captureFacts overwrites the method's block facts with this visit's
// block-entry states and terminator outcomes, reusing the fact slices.
func (ma *manalysis) captureFacts() {
	for bi, b := range ma.mc.Blocks {
		bf := ma.ip.facts.Block(b.ID)
		if bf == nil {
			continue
		}
		*bf = BlockFacts{
			Reachable:   ma.seen[bi],
			Decided:     cfg.NoBlock,
			IntConsts:   bf.IntConsts[:0],
			FloatConsts: bf.FloatConsts[:0],
			NonNull:     bf.NonNull[:0],
			StackConsts: bf.StackConsts[:0],
		}
		if !ma.seen[bi] {
			continue // keeps the zero-value "unreachable" claim
		}
		bf.Decided = ma.decided[bi]
		st := &ma.states[bi]
		for slot, l := range st.locals {
			if !l.init {
				continue
			}
			switch l.v.kind {
			case bytecode.KInt:
				if n, isC := l.v.isIntConst(); isC {
					bf.IntConsts = append(bf.IntConsts, IntConst{Slot: int32(slot), Val: n})
				}
			case bytecode.KFloat:
				if bits, isC := l.v.isFloatConst(); isC {
					bf.FloatConsts = append(bf.FloatConsts, FloatConst{Slot: int32(slot), Bits: bits})
				}
			case bytecode.KRef:
				if l.v.nl == nlNonNull {
					bf.NonNull = append(bf.NonNull, int32(slot))
				}
			}
		}
		for i, v := range st.stack {
			if n, isC := v.isIntConst(); isC {
				bf.StackConsts = append(bf.StackConsts, StackConst{Idx: int32(i), Val: n})
			}
		}
	}
}
