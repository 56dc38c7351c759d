package trace

import (
	"testing"
	"testing/quick"

	"repro/internal/cfg"
)

func TestTraceBasics(t *testing.T) {
	tr := New(7, []cfg.BlockID{3, 4, 5}, 0.98)
	if tr.ID != 7 || tr.Len() != 3 || tr.Entry() != 3 {
		t.Errorf("basics wrong: %+v", tr)
	}
	if tr.ExpectedCompletion != 0.98 {
		t.Error("expected completion not stored")
	}
	if len(tr.SideExits) != 3 {
		t.Errorf("side exit slots = %d, want 3", len(tr.SideExits))
	}
	if tr.CompletionRate() != 0 {
		t.Error("completion rate of unentered trace should be 0")
	}
	tr.Entered = 10
	tr.Completed = 9
	if tr.CompletionRate() != 0.9 {
		t.Errorf("completion rate = %v", tr.CompletionRate())
	}
	if tr.String() == "" {
		t.Error("empty String()")
	}
}

func TestKeyCanonical(t *testing.T) {
	a := Key([]cfg.BlockID{1, 2, 3})
	b := Key([]cfg.BlockID{1, 2, 3})
	c := Key([]cfg.BlockID{1, 23})
	d := Key([]cfg.BlockID{12, 3})
	if a != b {
		t.Error("identical sequences produced different keys")
	}
	if c == d {
		t.Error("key collision between [1,23] and [12,3]")
	}
}

// TestPropertyKeyInjective: distinct sequences yield distinct keys.
func TestPropertyKeyInjective(t *testing.T) {
	f := func(a, b []uint32) bool {
		xa := make([]cfg.BlockID, len(a))
		for i, v := range a {
			xa[i] = cfg.BlockID(v)
		}
		xb := make([]cfg.BlockID, len(b))
		for i, v := range b {
			xb[i] = cfg.BlockID(v)
		}
		same := len(xa) == len(xb)
		if same {
			for i := range xa {
				if xa[i] != xb[i] {
					same = false
					break
				}
			}
		}
		return (Key(xa) == Key(xb)) == same
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestEdgeKey(t *testing.T) {
	if EdgeKey(1, 2) == EdgeKey(2, 1) {
		t.Error("EdgeKey symmetric")
	}
	if EdgeKey(0, 5) != 5 {
		t.Errorf("EdgeKey(0,5) = %d", EdgeKey(0, 5))
	}
	if EdgeKey(0, 0) != 0 {
		t.Error("EdgeKey(0,0) != 0")
	}
	if EdgeKey(1, 0) != 1<<32 {
		t.Errorf("EdgeKey(1,0) = %x", EdgeKey(1, 0))
	}
	// The from side is the high word, so keys order edges by (from, to).
	if !(EdgeKey(1, 9) < EdgeKey(2, 0)) {
		t.Error("EdgeKey does not order by from first")
	}
}

func TestMapSource(t *testing.T) {
	m := MapSource{}
	tr := New(0, []cfg.BlockID{9, 10}, 1)
	m.Register(3, 9, tr)
	if m.Lookup(3, 9) != tr {
		t.Error("lookup missed registered edge")
	}
	if m.Lookup(9, 3) != nil || m.Lookup(4, 9) != nil {
		t.Error("lookup hit a foreign edge")
	}
}
