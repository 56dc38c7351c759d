package vm

import (
	"fmt"
	"maps"
	"math"
)

// NativeFunc implements a native method. Args are in declaration order, with
// the receiver first for instance methods. A native returns the method's
// result value (ignored for void methods).
type NativeFunc func(m *Machine, args []Value) (Value, error)

// RegisterNative binds a name usable in Method.Native. Registering after
// machine construction affects subsequent calls. The first call gives the
// machine its own copy of the table, so the shared builtinNatives is never
// written.
func (m *Machine) RegisterNative(name string, fn NativeFunc) {
	if !m.ownNatives {
		m.natives = maps.Clone(m.natives)
		m.ownNatives = true
	}
	m.natives[name] = fn
}

// builtinNatives is the standard library available to every program: console
// output, string/byte-array bridging, and the math routines that are native
// in a real JVM (java.lang.Math). Every machine starts out sharing it.
var builtinNatives = map[string]NativeFunc{
	// Console output.
	"print_int": func(m *Machine, args []Value) (Value, error) {
		fmt.Fprintf(m.out, "%d", args[0].Int())
		return Value{}, nil
	},
	"println_int": func(m *Machine, args []Value) (Value, error) {
		fmt.Fprintf(m.out, "%d\n", args[0].Int())
		return Value{}, nil
	},
	"print_float": func(m *Machine, args []Value) (Value, error) {
		fmt.Fprintf(m.out, "%g", args[0].Float())
		return Value{}, nil
	},
	"println_float": func(m *Machine, args []Value) (Value, error) {
		fmt.Fprintf(m.out, "%g\n", args[0].Float())
		return Value{}, nil
	},
	"print_str": func(m *Machine, args []Value) (Value, error) {
		s, err := wantString(args[0])
		if err != nil {
			return Value{}, err
		}
		fmt.Fprint(m.out, s)
		return Value{}, nil
	},
	"println_str": func(m *Machine, args []Value) (Value, error) {
		s, err := wantString(args[0])
		if err != nil {
			return Value{}, err
		}
		fmt.Fprintln(m.out, s)
		return Value{}, nil
	},
	"println": func(m *Machine, args []Value) (Value, error) {
		fmt.Fprintln(m.out)
		return Value{}, nil
	},

	// String/byte-array bridging.
	"str_len": func(m *Machine, args []Value) (Value, error) {
		s, err := wantString(args[0])
		if err != nil {
			return Value{}, err
		}
		return IntVal(int64(len(s))), nil
	},
	"str_at": func(m *Machine, args []Value) (Value, error) {
		s, err := wantString(args[0])
		if err != nil {
			return Value{}, err
		}
		i := args[1].Int()
		if i < 0 || i >= int64(len(s)) {
			return Value{}, &Trap{Kind: TrapIndexOOB, Detail: fmt.Sprintf("str_at(%d) on string of length %d", i, len(s))}
		}
		return IntVal(int64(s[i])), nil
	},
	"str_bytes": func(m *Machine, args []Value) (Value, error) {
		s, err := wantString(args[0])
		if err != nil {
			return Value{}, err
		}
		o := NewByteArray(len(s))
		copy(o.Bytes, s)
		return RefVal(o), nil
	},
	"bytes_str": func(m *Machine, args []Value) (Value, error) {
		b, err := wantBytes(args[0])
		if err != nil {
			return Value{}, err
		}
		return RefVal(NewString(string(b))), nil
	},

	// Math (native in a real JVM too).
	"math_sqrt":  mathUnary(math.Sqrt),
	"math_sin":   mathUnary(math.Sin),
	"math_cos":   mathUnary(math.Cos),
	"math_log":   mathUnary(math.Log),
	"math_exp":   mathUnary(math.Exp),
	"math_floor": mathUnary(math.Floor),
	"math_pow": func(m *Machine, args []Value) (Value, error) {
		return FloatVal(math.Pow(args[0].Float(), args[1].Float())), nil
	},
}

func mathUnary(f func(float64) float64) NativeFunc {
	return func(m *Machine, args []Value) (Value, error) {
		return FloatVal(f(args[0].Float())), nil
	}
}

func wantString(v Value) (string, error) {
	o := v.Ref()
	if o == nil {
		return "", &Trap{Kind: TrapNullDeref, Detail: "null string argument to native"}
	}
	if o.Kind != KindString {
		return "", &Trap{Kind: TrapBadCast, Detail: "native expected a string"}
	}
	return o.Str, nil
}

func wantBytes(v Value) ([]byte, error) {
	o := v.Ref()
	if o == nil {
		return nil, &Trap{Kind: TrapNullDeref, Detail: "null byte array argument to native"}
	}
	if o.Kind != KindBytes {
		return nil, &Trap{Kind: TrapBadCast, Detail: "native expected a byte array"}
	}
	return o.Bytes, nil
}
