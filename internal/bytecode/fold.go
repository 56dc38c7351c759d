package bytecode

import "math"

// This file is the one statement of what the pure arithmetic, conversion
// and compare opcodes compute on constant operands. Every static folder
// (internal/opt, internal/trace's superinstruction compiler, value-flow)
// calls it; the interpreter keeps its own inline switches for speed and is
// pinned to this table by the edge-operand differential in internal/progen.
//
// Values are int64 payloads exactly as vm.Value.N carries them: ints as
// themselves, floats as their IEEE-754 bit pattern.

// FloatToInt is the f2i conversion: NaN converts to 0 and values beyond the
// int64 range saturate, as in Java. Go's own int64(float64) is
// implementation-defined for those operands (amd64 yields MinInt64, arm64
// saturates), so every engine and folder converts through here.
func FloatToInt(f float64) int64 {
	switch {
	case f != f:
		return 0
	case f >= 1<<63:
		return math.MaxInt64
	case f <= -(1 << 63):
		return math.MinInt64
	}
	return int64(f)
}

func ffrom(v int64) float64 { return math.Float64frombits(uint64(v)) }
func fbits(f float64) int64 { return int64(math.Float64bits(f)) }

// FoldUnary evaluates INeg, FNeg, I2F or F2I on a constant payload.
func FoldUnary(op Op, v int64) int64 {
	switch op {
	case INeg:
		return -v
	case FNeg:
		return fbits(-ffrom(v))
	case I2F:
		return fbits(float64(v))
	default: // F2I
		return FloatToInt(ffrom(v))
	}
}

// FoldBinary evaluates a pure binary opcode (the I* arithmetic/shift/logic
// family, the F* arithmetic family, FCmpL/FCmpG) on constant payloads, a
// below b in push order. ok is false only for integer division or remainder
// by zero, which must stay live to trap at runtime, and for opcodes outside
// the family.
func FoldBinary(op Op, a, b int64) (int64, bool) {
	switch op {
	case IAdd:
		return a + b, true
	case ISub:
		return a - b, true
	case IMul:
		return a * b, true
	case IDiv:
		if b == 0 {
			return 0, false
		}
		if b == -1 {
			return -a, true // MinInt64 / -1 wraps instead of faulting
		}
		return a / b, true
	case IRem:
		if b == 0 {
			return 0, false
		}
		if b == -1 {
			return 0, true
		}
		return a % b, true
	case IShl:
		return a << (uint64(b) & 63), true
	case IShr:
		return a >> (uint64(b) & 63), true
	case IUshr:
		return int64(uint64(a) >> (uint64(b) & 63)), true
	case IAnd:
		return a & b, true
	case IOr:
		return a | b, true
	case IXor:
		return a ^ b, true
	case FAdd:
		return fbits(ffrom(a) + ffrom(b)), true
	case FSub:
		return fbits(ffrom(a) - ffrom(b)), true
	case FMul:
		return fbits(ffrom(a) * ffrom(b)), true
	case FDiv:
		return fbits(ffrom(a) / ffrom(b)), true
	case FRem:
		return fbits(math.Mod(ffrom(a), ffrom(b))), true
	case FCmpL, FCmpG:
		x, y := ffrom(a), ffrom(b)
		switch {
		case x < y:
			return -1, true
		case x > y:
			return 1, true
		case x == y:
			return 0, true
		}
		if op == FCmpL { // NaN involved
			return -1, true
		}
		return 1, true
	}
	return 0, false
}

// Cond1 evaluates a one-operand int conditional (ifeq..ifle against zero).
func Cond1(op Op, v int64) bool {
	switch op {
	case IfEq:
		return v == 0
	case IfNe:
		return v != 0
	case IfLt:
		return v < 0
	case IfGe:
		return v >= 0
	case IfGt:
		return v > 0
	default: // IfLe
		return v <= 0
	}
}

// Cond2 evaluates a two-operand int compare (if_icmp*), a below b in push
// order.
func Cond2(op Op, a, b int64) bool {
	switch op {
	case IfICmpEq:
		return a == b
	case IfICmpNe:
		return a != b
	case IfICmpLt:
		return a < b
	case IfICmpGe:
		return a >= b
	case IfICmpGt:
		return a > b
	default: // IfICmpLe
		return a <= b
	}
}
