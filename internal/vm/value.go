// Package vm implements the execution engine: a stack-based interpreter for
// the bytecode ISA with three dispatch models — per-instruction, per-block
// (direct-threaded-inlining, the paper's Figure 2), and trace dispatch. The
// profiler attaches to the block dispatch path through the DispatchHook
// interface, and traces come through trace.Source (the profiler's graph,
// whose nodes hold the trace cache's entry traces); both
// are optional, so the same engine serves the unprofiled baseline, the
// profiled interpreter, and the full trace-dispatching VM.
package vm

import (
	"fmt"
	"math"

	"repro/internal/classfile"
)

// Value is one operand-stack or local slot. Integers live in N; floats are
// stored as their IEEE-754 bit pattern in N; references live in R. The
// interpretation is determined entirely by the instruction operating on the
// slot, as in an untyped-slot JVM frame.
type Value struct {
	N int64
	R *Object
}

// IntVal wraps an integer.
func IntVal(n int64) Value { return Value{N: n} }

// FloatVal wraps a float.
func FloatVal(f float64) Value { return Value{N: int64(math.Float64bits(f))} }

// RefVal wraps a reference (nil R is the null reference).
func RefVal(r *Object) Value { return Value{R: r} }

// BoolVal wraps a boolean as 0/1.
func BoolVal(b bool) Value {
	if b {
		return Value{N: 1}
	}
	return Value{N: 0}
}

// Int reads the slot as an integer.
func (v Value) Int() int64 { return v.N }

// Float reads the slot as a float.
func (v Value) Float() float64 { return math.Float64frombits(uint64(v.N)) }

// Ref reads the slot as a reference.
func (v Value) Ref() *Object { return v.R }

// IsNull reports whether the slot holds the null reference.
func (v Value) IsNull() bool { return v.R == nil }

// ObjKind discriminates heap object shapes.
type ObjKind uint8

const (
	// KindObject is a class instance with fields.
	KindObject ObjKind = iota
	// KindArray is an int/float/ref array backed by Elems.
	KindArray
	// KindBytes is a byte array backed by Bytes.
	KindBytes
	// KindString is an immutable string.
	KindString
)

// Object is a heap object: a class instance, an array, or a string.
type Object struct {
	Kind  ObjKind
	Class *classfile.Class // non-nil only for KindObject

	Fields []Value // instance fields, indexed by Field.Offset
	Elems  []Value // int/float/ref array storage
	Bytes  []byte  // byte array storage
	Str    string  // string payload

	// ElemKind records the declared element kind of a KindArray object
	// (bytecode.ElemInt/ElemFloat/ElemRef) for diagnostics and checks.
	ElemKind int32
}

// Length returns the array or string length; -1 for plain objects.
func (o *Object) Length() int {
	switch o.Kind {
	case KindArray:
		return len(o.Elems)
	case KindBytes:
		return len(o.Bytes)
	case KindString:
		return len(o.Str)
	}
	return -1
}

// NewInstance allocates a zeroed instance of a linked class.
func NewInstance(c *classfile.Class) *Object {
	return &Object{Kind: KindObject, Class: c, Fields: make([]Value, c.NumFields)}
}

// NewString allocates a string object.
func NewString(s string) *Object { return &Object{Kind: KindString, Str: s} }

// NewByteArray allocates a byte array.
func NewByteArray(n int) *Object { return &Object{Kind: KindBytes, Bytes: make([]byte, n)} }

// NewValueArray allocates an int/float/ref array of the given element kind.
func NewValueArray(kind int32, n int) *Object {
	return &Object{Kind: KindArray, Elems: make([]Value, n), ElemKind: kind}
}

// GoString renders the object briefly for diagnostics.
func (o *Object) GoString() string {
	switch {
	case o == nil:
		return "null"
	case o.Kind == KindString:
		return fmt.Sprintf("%q", o.Str)
	case o.Kind == KindBytes:
		return fmt.Sprintf("byte[%d]", len(o.Bytes))
	case o.Kind == KindArray:
		return fmt.Sprintf("array[%d]", len(o.Elems))
	default:
		return o.Class.Name + "@"
	}
}
