package arena

import "testing"

// TestCopyNeverOverlaps pins the property the analyses' aliasing rules rest
// on: a copy is exact, its capacity equals its length, and appending to one
// copy never changes another, across chunk boundaries and a Reset.
func TestCopyNeverOverlaps(t *testing.T) {
	var a Arena[int64]
	for round := 0; round < 2; round++ {
		var outs [][]int64
		for n := 0; n < 300; n++ {
			src := make([]int64, n%37)
			for i := range src {
				src[i] = int64(n*100 + i)
			}
			out := a.Copy(src)
			if len(out) != len(src) || cap(out) != len(src) {
				t.Fatalf("copy of %d: len %d cap %d", len(src), len(out), cap(out))
			}
			outs = append(outs, out)
		}
		for _, out := range outs {
			_ = append(out, -1) // must reallocate, not write into a neighbour
		}
		for n, out := range outs {
			for i, v := range out {
				if v != int64(n*100+i) {
					t.Fatalf("round %d: copy %d element %d = %d, overwritten", round, n, i, v)
				}
			}
		}
		a.Reset()
	}
}

func TestZeroed(t *testing.T) {
	s := Zeroed([]int{1, 2, 3, 4}, 3)
	if len(s) != 3 || s[0] != 0 || s[2] != 0 {
		t.Fatalf("Zeroed = %v", s)
	}
	if s = Zeroed(s, 10); len(s) != 10 {
		t.Fatalf("grown length %d", len(s))
	}
}
