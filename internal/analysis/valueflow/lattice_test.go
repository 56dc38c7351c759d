package valueflow

import (
	"testing"
	"unsafe"
)

// TestValueSizes pins the packed layout of the abstract values: every
// stored state is an arena slice of them, so a field added carelessly
// grows every registry miss's memory.
func TestValueSizes(t *testing.T) {
	if n := unsafe.Sizeof(absVal{}); n != 32 {
		t.Errorf("absVal is %d bytes, want 32", n)
	}
	if n := unsafe.Sizeof(lval{}); n != 40 {
		t.Errorf("lval is %d bytes, want 40", n)
	}
}
