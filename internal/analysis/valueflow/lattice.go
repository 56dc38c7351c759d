package valueflow

import (
	"math"

	"repro/internal/bytecode"
)

// maxAbsStack bounds the abstract operand stack, matching the verifier's
// MaxVerifyStack so both analyses give up on the same degenerate programs.
const maxAbsStack = 4096

// widenAfter is the number of times a leader's entry state (a block start
// or handler entry) may be re-merged before integer bounds that are still
// moving get widened to ±∞. Every cycle passes through a leader, so this
// bounds fixpoint iteration on counting loops without costing precision on
// the first few unrollings.
const widenAfter = 16

// noSrc marks an abstract value with no local-variable provenance.
const noSrc int32 = -1

// nullness is the three-point reference lattice: maybe-null on top,
// definitely-null and definitely-non-null below it.
type nullness uint8

const (
	nlMaybe nullness = iota
	nlNull
	nlNonNull
)

// absVal is one abstract value: the verifier's kind lattice refined with an
// integer interval, a float constant, reference nullness, and provenance.
// src is the local slot the value was loaded from (noSrc if none); it lets
// a conditional refine the *local* it tested, and is invalidated when the
// slot is overwritten. The struct is comparable, which flowTo relies on for
// change detection.
//
// The fields are ordered widest first so the struct packs into 32 bytes
// (lval into 40); neither holds a pointer, so arenas of them are never
// scanned by the GC.
type absVal struct {
	lo   int64 // integer interval, valid when kind == KInt
	hi   int64
	fb   uint64 // float constant bits, valid when kind == KFloat && fc
	src  int32
	kind bytecode.ValKind
	fc   bool
	nl   nullness // valid when kind == KRef
}

func topAny() absVal { return absVal{kind: bytecode.KAny, src: noSrc} }
func topInt() absVal {
	return absVal{kind: bytecode.KInt, lo: math.MinInt64, hi: math.MaxInt64, src: noSrc}
}
func topFloat() absVal { return absVal{kind: bytecode.KFloat, src: noSrc} }
func topRef() absVal   { return absVal{kind: bytecode.KRef, nl: nlMaybe, src: noSrc} }

func intConst(n int64) absVal { return absVal{kind: bytecode.KInt, lo: n, hi: n, src: noSrc} }

func intRange(lo, hi int64) absVal {
	return absVal{kind: bytecode.KInt, lo: lo, hi: hi, src: noSrc}
}

func floatConst(bits uint64) absVal {
	return absVal{kind: bytecode.KFloat, fb: bits, fc: true, src: noSrc}
}

func nullRef() absVal    { return absVal{kind: bytecode.KRef, nl: nlNull, src: noSrc} }
func nonNullRef() absVal { return absVal{kind: bytecode.KRef, nl: nlNonNull, src: noSrc} }

func (v absVal) isIntConst() (int64, bool) {
	if v.kind == bytecode.KInt && v.lo == v.hi {
		return v.lo, true
	}
	return 0, false
}

func (v absVal) isFloatConst() (uint64, bool) {
	if v.kind == bytecode.KFloat && v.fc {
		return v.fb, true
	}
	return 0, false
}

// merge joins two abstract values. Joining distinct kinds yields the
// unconstrained top; within a kind the interval hull / constant equality /
// nullness equality is kept. widen additionally pushes integer bounds that
// are still moving to ±∞ (applied once a leader has been revisited more
// than widenAfter times).
func merge(a, b absVal, widen bool) absVal {
	if a.kind != b.kind {
		return topAny()
	}
	out := a
	if a.src != b.src {
		out.src = noSrc
	}
	switch a.kind {
	case bytecode.KInt:
		if b.lo < out.lo {
			out.lo = b.lo
			if widen {
				out.lo = math.MinInt64
			}
		}
		if b.hi > out.hi {
			out.hi = b.hi
			if widen {
				out.hi = math.MaxInt64
			}
		}
	case bytecode.KFloat:
		if !(a.fc && b.fc && a.fb == b.fb) {
			out.fc = false
			out.fb = 0
		}
	case bytecode.KRef:
		if a.nl != b.nl {
			out.nl = nlMaybe
		}
	}
	return out
}

// lval is one abstract local slot. init distinguishes "written on every
// path here" from slots whose VM content may still be the zero Value; only
// init slots ever become facts.
type lval struct {
	v    absVal
	init bool
}

func mergeLocal(a, b lval, widen bool) lval {
	if !a.init || !b.init {
		return lval{v: topAny()}
	}
	return lval{v: merge(a.v, b.v, widen), init: true}
}

// absState is the abstract machine state at one instruction boundary.
type absState struct {
	stack  []absVal
	locals []lval
}

// copyFrom overwrites st with src, reusing st's backing arrays.
func (st *absState) copyFrom(src *absState) {
	st.stack = append(st.stack[:0], src.stack...)
	st.locals = append(st.locals[:0], src.locals...)
}

// cmpKind is the canonical comparison relation behind the conditional
// branch opcodes (both the zero-test and two-operand families).
type cmpKind uint8

const (
	cmpEq cmpKind = iota
	cmpNe
	cmpLt
	cmpGe
	cmpGt
	cmpLe
)

// intCmpOf maps a conditional opcode to its relation; ok is false for the
// reference/null tests.
func intCmpOf(op bytecode.Op) (cmpKind, bool) {
	switch op {
	case bytecode.IfEq, bytecode.IfICmpEq:
		return cmpEq, true
	case bytecode.IfNe, bytecode.IfICmpNe:
		return cmpNe, true
	case bytecode.IfLt, bytecode.IfICmpLt:
		return cmpLt, true
	case bytecode.IfGe, bytecode.IfICmpGe:
		return cmpGe, true
	case bytecode.IfGt, bytecode.IfICmpGt:
		return cmpGt, true
	case bytecode.IfLe, bytecode.IfICmpLe:
		return cmpLe, true
	}
	return 0, false
}

func negateCmp(c cmpKind) cmpKind {
	switch c {
	case cmpEq:
		return cmpNe
	case cmpNe:
		return cmpEq
	case cmpLt:
		return cmpGe
	case cmpGe:
		return cmpLt
	case cmpGt:
		return cmpLe
	default:
		return cmpGt
	}
}

// swapCmp rewrites "a REL b" as "b REL' a".
func swapCmp(c cmpKind) cmpKind {
	switch c {
	case cmpLt:
		return cmpGt
	case cmpGe:
		return cmpLe
	case cmpGt:
		return cmpLt
	case cmpLe:
		return cmpGe
	default:
		return c
	}
}

// rangeCmp decides "a REL b" over intervals where possible.
func rangeCmp(c cmpKind, alo, ahi, blo, bhi int64) (taken, decided bool) {
	switch c {
	case cmpEq:
		if alo == ahi && blo == bhi && alo == blo {
			return true, true
		}
		if ahi < blo || bhi < alo {
			return false, true
		}
	case cmpNe:
		t, d := rangeCmp(cmpEq, alo, ahi, blo, bhi)
		return !t, d
	case cmpLt:
		if ahi < blo {
			return true, true
		}
		if alo >= bhi {
			return false, true
		}
	case cmpGe:
		t, d := rangeCmp(cmpLt, alo, ahi, blo, bhi)
		return !t, d
	case cmpGt:
		if alo > bhi {
			return true, true
		}
		if ahi <= blo {
			return false, true
		}
	case cmpLe:
		t, d := rangeCmp(cmpGt, alo, ahi, blo, bhi)
		return !t, d
	}
	return false, false
}

// condOutcome decides a conditional branch from the abstract operands (in
// push order: a below b for the two-operand forms; b is ignored for the
// single-operand forms). Undecidable or kind-mismatched operands report
// decided == false, which is always sound.
func condOutcome(op bytecode.Op, a, b absVal) (taken, decided bool) {
	if c, ok := intCmpOf(op); ok {
		if bytecode.CondArity(op) == 1 {
			b = intConst(0)
		}
		if a.kind != bytecode.KInt || b.kind != bytecode.KInt {
			return false, false
		}
		return rangeCmp(c, a.lo, a.hi, b.lo, b.hi)
	}
	switch op {
	case bytecode.IfNull:
		if a.kind != bytecode.KRef || a.nl == nlMaybe {
			return false, false
		}
		return a.nl == nlNull, true
	case bytecode.IfNonNull:
		if a.kind != bytecode.KRef || a.nl == nlMaybe {
			return false, false
		}
		return a.nl == nlNonNull, true
	case bytecode.IfACmpEq, bytecode.IfACmpNe:
		if a.kind != bytecode.KRef || b.kind != bytecode.KRef {
			return false, false
		}
		var eq, dec bool
		switch {
		case a.nl == nlNull && b.nl == nlNull:
			eq, dec = true, true
		case a.nl == nlNull && b.nl == nlNonNull,
			a.nl == nlNonNull && b.nl == nlNull:
			eq, dec = false, true
		}
		if !dec {
			return false, false
		}
		if op == bytecode.IfACmpNe {
			eq = !eq
		}
		return eq, true
	}
	return false, false
}

// clampCmp narrows a's interval under the constraint "a REL [blo,bhi]".
// ok is false when the constraint is infeasible (the edge cannot execute).
func clampCmp(c cmpKind, alo, ahi, blo, bhi int64) (lo, hi int64, ok bool) {
	lo, hi = alo, ahi
	switch c {
	case cmpEq:
		if blo > lo {
			lo = blo
		}
		if bhi < hi {
			hi = bhi
		}
	case cmpNe:
		if blo == bhi {
			if lo == blo && lo < hi {
				lo++
			}
			if hi == blo && lo < hi {
				hi--
			}
			if lo == hi && lo == blo {
				return 0, 0, false
			}
		}
	case cmpLt:
		if bhi > math.MinInt64 && bhi-1 < hi {
			hi = bhi - 1
		}
	case cmpLe:
		if bhi < hi {
			hi = bhi
		}
	case cmpGt:
		if blo < math.MaxInt64 && blo+1 > lo {
			lo = blo + 1
		}
	case cmpGe:
		if blo > lo {
			lo = blo
		}
	}
	return lo, hi, lo <= hi
}

// refineLocal writes a refined value back into the local slot the operand
// was loaded from, if its provenance is still valid.
func refineLocal(st *absState, src int32, v absVal) {
	if src < 0 || int(src) >= len(st.locals) {
		return
	}
	v.src = noSrc
	st.locals[src] = lval{v: v, init: true}
}

// refineBranch conditions st on one edge of a conditional branch: operands
// are given in push order (b is ignored for single-operand forms), taken
// selects the edge. It refines the tested locals through provenance and
// reports whether the edge is feasible at all.
func refineBranch(st *absState, op bytecode.Op, a, b absVal, taken bool) bool {
	if c, ok := intCmpOf(op); ok {
		if bytecode.CondArity(op) == 1 {
			b = intConst(0)
		}
		if a.kind != bytecode.KInt || b.kind != bytecode.KInt {
			return true
		}
		if !taken {
			c = negateCmp(c)
		}
		alo, ahi, okA := clampCmp(c, a.lo, a.hi, b.lo, b.hi)
		blo, bhi, okB := clampCmp(swapCmp(c), b.lo, b.hi, a.lo, a.hi)
		if !okA || !okB {
			return false
		}
		na, nb := a, b
		na.lo, na.hi = alo, ahi
		nb.lo, nb.hi = blo, bhi
		refineLocal(st, a.src, na)
		refineLocal(st, b.src, nb)
		return true
	}
	switch op {
	case bytecode.IfNull, bytecode.IfNonNull:
		if a.kind != bytecode.KRef {
			return true
		}
		isNull := (op == bytecode.IfNull) == taken
		if (isNull && a.nl == nlNonNull) || (!isNull && a.nl == nlNull) {
			return false
		}
		na := a
		na.nl = nlNonNull
		if isNull {
			na.nl = nlNull
		}
		refineLocal(st, a.src, na)
	case bytecode.IfACmpEq, bytecode.IfACmpNe:
		if a.kind != bytecode.KRef || b.kind != bytecode.KRef {
			return true
		}
		eq := (op == bytecode.IfACmpEq) == taken
		// Only the null/non-null consequences are expressible.
		if eq {
			if (a.nl == nlNull && b.nl == nlNonNull) || (a.nl == nlNonNull && b.nl == nlNull) {
				return false
			}
			if a.nl == nlNull {
				refineLocal(st, b.src, nullRef())
			}
			if b.nl == nlNull {
				refineLocal(st, a.src, nullRef())
			}
			if a.nl == nlNonNull {
				refineLocal(st, b.src, nonNullRef())
			}
			if b.nl == nlNonNull {
				refineLocal(st, a.src, nonNullRef())
			}
		} else {
			if a.nl == nlNull && b.nl == nlNull {
				return false
			}
			if a.nl == nlNull {
				refineLocal(st, b.src, nonNullRef())
			}
			if b.nl == nlNull {
				refineLocal(st, a.src, nonNullRef())
			}
		}
	}
	return true
}
