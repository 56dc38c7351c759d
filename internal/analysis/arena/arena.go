// Package arena holds the two memory-reuse helpers the worklist analyses
// (classfile.Verify and valueflow.Compute) share: an arena for the abstract
// states they store, and a zeroing resize for their per-method arrays.
package arena

// Arena hands out slices carved from large chunks. T must hold no
// pointers: the GC then never scans a chunk, and a recycled chunk keeps
// nothing alive. Reset recycles every chunk; slices handed out before it
// must be dead by then.
type Arena[T any] struct {
	chunks [][]T
	cur    int // chunk being carved
	off    int // first free element of chunks[cur]
}

// firstChunk is the length of the first chunk; each later one doubles.
const firstChunk = 256

// Copy returns a copy of src in arena memory, or nil for an empty src. Its
// capacity equals its length, so an append to it can never write into a
// neighbour.
func (a *Arena[T]) Copy(src []T) []T {
	n := len(src)
	if n == 0 {
		return nil
	}
	for a.cur < len(a.chunks) && a.off+n > len(a.chunks[a.cur]) {
		a.cur++
		a.off = 0
	}
	if a.cur == len(a.chunks) {
		size := firstChunk
		if k := len(a.chunks); k > 0 {
			size = 2 * len(a.chunks[k-1])
		}
		a.chunks = append(a.chunks, make([]T, max(size, n)))
	}
	out := a.chunks[a.cur][a.off : a.off+n : a.off+n]
	a.off += n
	copy(out, src)
	return out
}

// Reset makes every chunk available again.
func (a *Arena[T]) Reset() { a.cur, a.off = 0, 0 }

// Zeroed returns s with length n and every element zero, reusing its
// backing array when it is large enough.
func Zeroed[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}
