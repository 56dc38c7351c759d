package valueflow

import (
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
		ma := newMethodAnalysis(ip, m, false, nil)
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
// dropped (capture marks its blocks reachable with no claims), every method
// it could possibly invoke — for virtual sites, every same-slot method of
// any class, signature checks waived — is seeded with top arguments, and
// its summary reports the conservative return effect. Seeding with top is
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
	m := ip.prog.Methods[id]
	ins, err := bytecode.Decode(m.Code)
	if err != nil {
		return // already conservative: no claims, unknown return
	}
	for _, in := range ins {
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

// capture re-runs every reached method once against the converged
// summaries and records its block facts; unreached methods keep the
// zero-value "unreachable" claim on their blocks, degraded methods get
// reachability and nothing else.
func (ip *iproc) capture() *Facts {
	f := newFacts(ip.p.NumBlocks())
	for id, sum := range ip.sums {
		mc := ip.p.Methods[id]
		if mc == nil || !sum.reached {
			continue
		}
		f.reached++
		if sum.degraded {
			for _, b := range mc.Blocks {
				if bf := f.Block(b.ID); bf != nil {
					bf.Reachable = true
				}
			}
			continue
		}
		ma := newMethodAnalysis(ip, ip.prog.Methods[id], true, f)
		if ma == nil || !ma.run() {
			return topFactsFor(ip.p)
		}
		f.analyzed++
	}
	return f
}

// calleesOf resolves the sound dynamic target set of a call: the resolved
// method for static/special dispatch, and for virtual dispatch every
// method any class in the program exposes at the reference's vtable slot
// (the receiver's static type is unknown). ok is false when a same-slot
// method disagrees on signature — dispatch there would desynchronize the
// caller's stack, so the whole analysis degrades.
func (ip *iproc) calleesOf(ref *classfile.MethodRef) ([]*classfile.Method, bool) {
	if ref.Kind != classfile.RefVirtual {
		return []*classfile.Method{ref.Method}, true
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

// manalysis is the instruction-granularity fixpoint over one method,
// mirroring the verifier's worklist skeleton with the richer lattice.
type manalysis struct {
	ip      *iproc
	ev      evaluator
	m       *classfile.Method
	mc      *cfg.MethodCFG
	ins     []bytecode.Instr
	idxOf   map[uint32]int
	states  []absState
	seen    []bool
	visits  []uint32
	queued  []bool
	work    []int
	capture bool
	facts   *Facts
}

func newMethodAnalysis(ip *iproc, m *classfile.Method, capture bool, facts *Facts) *manalysis {
	ins, err := bytecode.Decode(m.Code)
	if err != nil || len(ins) == 0 {
		return nil
	}
	ma := &manalysis{
		ip:      ip,
		ev:      evaluator{prog: ip.prog},
		m:       m,
		mc:      ip.p.Methods[m.ID],
		ins:     ins,
		idxOf:   make(map[uint32]int, len(ins)),
		states:  make([]absState, len(ins)),
		seen:    make([]bool, len(ins)),
		visits:  make([]uint32, len(ins)),
		queued:  make([]bool, len(ins)),
		capture: capture,
		facts:   facts,
	}
	if ma.mc == nil {
		return nil
	}
	for i, in := range ins {
		ma.idxOf[in.PC] = i
	}
	return ma
}

func (ma *manalysis) run() bool {
	na := ma.m.NArgs()
	sum := ma.ip.sums[ma.m.ID]
	if ma.m.MaxLocals < na || len(sum.args) != na || ma.m.MaxLocals > 1<<16 {
		return false
	}
	entry := absState{locals: make([]lval, ma.m.MaxLocals)}
	for i := 0; i < na; i++ {
		entry.locals[i] = lval{v: sum.args[i], init: true}
	}
	ma.flowTo(0, entry)
	for len(ma.work) > 0 && !ma.ev.bail {
		idx := ma.work[len(ma.work)-1]
		ma.work = ma.work[:len(ma.work)-1]
		ma.queued[idx] = false
		ma.step(idx)
	}
	if ma.ev.bail {
		return false
	}
	if ma.capture {
		ma.captureFacts()
	}
	return true
}

func (ma *manalysis) enqueueInstr(j int) {
	if !ma.queued[j] {
		ma.queued[j] = true
		ma.work = append(ma.work, j)
	}
}

// flowTo merges a state into an instruction's entry, queueing it when the
// merge changed anything. Integer bounds still moving after widenAfter
// revisits are widened to ±∞, bounding the fixpoint.
func (ma *manalysis) flowTo(j int, st absState) {
	if j < 0 || j >= len(ma.ins) {
		ma.ev.fail()
		return
	}
	if !ma.seen[j] {
		ma.seen[j] = true
		ma.states[j] = st.clone()
		ma.enqueueInstr(j)
		return
	}
	cur := &ma.states[j]
	if len(cur.stack) != len(st.stack) || len(cur.locals) != len(st.locals) {
		ma.ev.fail()
		return
	}
	ma.visits[j]++
	widen := ma.visits[j] > widenAfter
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
		ma.enqueueInstr(j)
	}
}

func (ma *manalysis) branchTo(pc uint32, st absState) {
	j, ok := ma.idxOf[pc]
	if !ok {
		ma.ev.fail()
		return
	}
	ma.flowTo(j, st)
}

func (ma *manalysis) step(idx int) {
	in := ma.ins[idx]
	st := ma.states[idx].clone()
	// Exception edges: only Throw transfers to a handler (traps abort the
	// run), but the throw may be arbitrarily deep in callees, so every
	// covered instruction — not just Throw — flows its entry locals to
	// its handlers with the exception as the sole stack operand. This
	// over-approximation mirrors the verifier and can only weaken facts.
	for hi := range ma.m.Handlers {
		h := &ma.m.Handlers[hi]
		if !h.Covers(in.PC) {
			continue
		}
		hj, ok := ma.idxOf[h.HandlerPC]
		if !ok {
			ma.ev.fail()
			return
		}
		hst := absState{
			stack:  []absVal{nonNullRef()},
			locals: append([]lval(nil), st.locals...),
		}
		ma.flowTo(hj, hst)
	}
	switch bytecode.InfoOf(in.Op).Flow {
	case bytecode.FlowNext:
		ma.ev.exec(&st, in)
		if !ma.ev.bail {
			ma.flowTo(idx+1, st)
		}
	case bytecode.FlowGoto:
		ma.branchTo(uint32(in.A), st)
	case bytecode.FlowCond:
		ma.stepCond(idx, in, st)
	case bytecode.FlowSwitch:
		ma.stepSwitch(in, st)
	case bytecode.FlowCall:
		ma.stepCall(idx, in, st)
	case bytecode.FlowReturn:
		ma.stepReturn(in, st)
	case bytecode.FlowThrow:
		ma.ev.pop(&st) // handler edges already flowed above
	case bytecode.FlowHalt:
		// Terminates the machine; no successors.
	default:
		ma.ev.fail()
	}
}

// stepCond follows only the decided edge when the outcome is known
// (sparse conditional propagation), and otherwise conditions each edge's
// state on its branch direction, skipping edges proven infeasible.
func (ma *manalysis) stepCond(idx int, in bytecode.Instr, st absState) {
	var a, b absVal
	if bytecode.CondArity(in.Op) == 2 {
		b = ma.ev.pop(&st)
		a = ma.ev.pop(&st)
	} else {
		a = ma.ev.pop(&st)
	}
	if ma.ev.bail {
		return
	}
	if taken, decided := condOutcome(in.Op, a, b); decided {
		if taken {
			ma.branchTo(uint32(in.A), st)
		} else {
			ma.flowTo(idx+1, st)
		}
		return
	}
	tst := st.clone()
	if refineBranch(&tst, in.Op, a, b, true) {
		ma.branchTo(uint32(in.A), tst)
	}
	if refineBranch(&st, in.Op, a, b, false) {
		ma.flowTo(idx+1, st)
	}
}

func (ma *manalysis) stepSwitch(in bytecode.Instr, st absState) {
	key := ma.ev.pop(&st)
	if ma.ev.bail {
		return
	}
	if n, ok := key.isIntConst(); ok {
		ma.branchTo(switchTargetPC(in, n), st)
		return
	}
	if in.Op == bytecode.TableSwitch && key.kind == bytecode.KInt && len(in.Targets) > 0 {
		lo := int64(in.A)
		hi := lo + int64(len(in.Targets)) - 1
		if key.hi < lo || key.lo > hi {
			ma.branchTo(in.Dflt, st)
			return
		}
	}
	for _, t := range in.Targets {
		ma.branchTo(t, st)
	}
	ma.branchTo(in.Dflt, st)
}

// switchTargetPC mirrors the VM's switch dispatch for a constant key.
func switchTargetPC(in bytecode.Instr, key int64) uint32 {
	if in.Op == bytecode.TableSwitch {
		idx := key - int64(in.A)
		if idx >= 0 && idx < int64(len(in.Targets)) {
			return in.Targets[idx]
		}
		return in.Dflt
	}
	for i, k := range in.Keys {
		if int64(k) == key && i < len(in.Targets) {
			return in.Targets[i]
		}
	}
	return in.Dflt
}

func (ma *manalysis) stepCall(idx int, in bytecode.Instr, st absState) {
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
	args := make([]absVal, na)
	for i := na - 1; i >= 0; i-- {
		args[i] = ma.ev.pop(&st)
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
		ma.ev.provenNonNull(&st, args[0])
	}
	for i := range args {
		args[i].src = noSrc
	}
	if instance && len(args) > 0 && args[0].kind == bytecode.KRef {
		args[0].nl = nlNonNull // the callee's receiver cannot be null
	}
	targets, ok := ma.ip.calleesOf(ref)
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
		if !ma.capture {
			if ma.ip.flowArgs(sum, args) {
				ma.ip.enqueue(t.ID)
			}
			sum.addCaller(ma.m.ID)
		}
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
		ma.ev.push(&st, retv)
		if ma.ev.bail {
			return
		}
	}
	ma.flowTo(idx+1, st)
}

func (ma *manalysis) stepReturn(in bytecode.Instr, st absState) {
	var v absVal
	hasVal := in.Op != bytecode.ReturnVoid
	if hasVal {
		v = ma.ev.pop(&st)
		if ma.ev.bail {
			return
		}
		v.src = noSrc
	}
	if ma.capture {
		return
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

// captureFacts projects the converged instruction states onto block-entry
// facts and decided terminators.
func (ma *manalysis) captureFacts() {
	for _, b := range ma.mc.Blocks {
		sidx, ok := ma.idxOf[b.StartPC()]
		if !ok || int(b.ID) >= len(ma.facts.blocks) {
			continue
		}
		bf := &ma.facts.blocks[b.ID]
		if !ma.seen[sidx] {
			continue // keeps the zero-value "unreachable" claim
		}
		bf.Reachable = true
		st := &ma.states[sidx]
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
		ma.captureDecided(b, bf)
	}
}

func (ma *manalysis) captureDecided(b *cfg.Block, bf *BlockFacts) {
	term := b.Terminator()
	tidx, ok := ma.idxOf[term.PC]
	if !ok || !ma.seen[tidx] {
		return
	}
	tst := &ma.states[tidx]
	switch b.Kind {
	case bytecode.FlowCond:
		arity := bytecode.CondArity(term.Op)
		if len(tst.stack) < arity {
			return
		}
		var a, b2 absVal
		if arity == 2 {
			a, b2 = tst.stack[len(tst.stack)-2], tst.stack[len(tst.stack)-1]
		} else {
			a = tst.stack[len(tst.stack)-1]
		}
		if taken, decided := condOutcome(term.Op, a, b2); decided {
			if taken {
				bf.Decided = b.Taken
			} else {
				bf.Decided = b.FallThrough
			}
		}
	case bytecode.FlowSwitch:
		if len(tst.stack) < 1 {
			return
		}
		key := tst.stack[len(tst.stack)-1]
		if n, isC := key.isIntConst(); isC {
			if id, ok := b.SwitchSucc(term, n); ok {
				bf.Decided = id
			}
		} else if term.Op == bytecode.TableSwitch && key.kind == bytecode.KInt && len(b.SwitchTargets) > 0 {
			lo := int64(term.A)
			hi := lo + int64(len(b.SwitchTargets)) - 1
			if key.hi < lo || key.lo > hi {
				bf.Decided = b.SwitchDefault
			}
		}
	}
}
