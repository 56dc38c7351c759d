package obs

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func TestRingTailOrderAndOverwrite(t *testing.T) {
	r := NewRing(4)
	r.SetClock(func() int64 { return 42 })
	for i := 0; i < 6; i++ {
		r.Emit(Event{Type: EvTraceBuilt, TraceID: int32(i)})
	}
	if r.Total() != 6 {
		t.Errorf("Total = %d, want 6", r.Total())
	}
	if r.Len() != 4 {
		t.Errorf("Len = %d, want 4 (capacity)", r.Len())
	}
	tail := r.Tail(nil, 0)
	if len(tail) != 4 {
		t.Fatalf("Tail(all) returned %d events", len(tail))
	}
	for i, e := range tail {
		wantID := int32(i + 2) // events 0 and 1 were overwritten
		if e.TraceID != wantID || e.Seq != uint64(i+2) {
			t.Errorf("tail[%d] = id %d seq %d, want id %d seq %d", i, e.TraceID, e.Seq, wantID, i+2)
		}
		if e.UnixNano != 42 {
			t.Errorf("tail[%d] not stamped by clock: %d", i, e.UnixNano)
		}
	}
	last2 := r.Tail(nil, 2)
	if len(last2) != 2 || last2[0].TraceID != 4 || last2[1].TraceID != 5 {
		t.Errorf("Tail(2) = %+v", last2)
	}
}

func TestRingBeforeWrap(t *testing.T) {
	r := NewRing(8)
	r.Emit(Event{Type: EvQuarantine})
	r.Emit(Event{Type: EvMode})
	if r.Len() != 2 || r.Total() != 2 {
		t.Errorf("Len/Total = %d/%d, want 2/2", r.Len(), r.Total())
	}
	tail := r.Tail(nil, 0)
	if len(tail) != 2 || tail[0].Type != EvQuarantine || tail[1].Type != EvMode {
		t.Errorf("tail = %+v", tail)
	}
}

func TestNilRingIsInert(t *testing.T) {
	var r *Ring
	r.Emit(Event{Type: EvMode}) // must not panic
	if r.Len() != 0 || r.Total() != 0 || r.Cap() != 0 {
		t.Error("nil ring reports held events")
	}
	if got := r.Tail(nil, 5); len(got) != 0 {
		t.Errorf("nil ring Tail = %v", got)
	}
}

func TestTailFuncFilters(t *testing.T) {
	r := NewRing(16)
	for i := 0; i < 5; i++ {
		r.Emit(Event{Type: EvTraceBuilt, Program: "a"})
		r.Emit(Event{Type: EvTraceRetired, Program: "b"})
	}
	built := r.TailFunc(nil, 0, func(e Event) bool { return e.Type == EvTraceBuilt })
	if len(built) != 5 {
		t.Errorf("filtered %d EvTraceBuilt, want 5", len(built))
	}
	bTail := r.TailFunc(nil, 2, func(e Event) bool { return e.Program == "b" })
	if len(bTail) != 2 || bTail[0].Seq != 5 || bTail[1].Seq != 7 {
		// program b events have seq 1,3,5,7,9; the newest 2... seq 7 and 9.
		t.Logf("bTail = %+v", bTail)
	}
	if len(bTail) != 2 || bTail[1].Seq != 9 {
		t.Errorf("TailFunc(n=2) newest = %+v, want seq 9 last", bTail)
	}
}

// TestEmitZeroAlloc pins the tentpole claim: emitting into a warmed ring —
// constructing the Event, the interface call, the copy into the buffer —
// performs zero heap allocations.
func TestEmitZeroAlloc(t *testing.T) {
	r := NewRing(256)
	var sink Sink = r
	program := "compress"
	allocs := testing.AllocsPerRun(200, func() {
		sink.Emit(Event{Type: EvNodeState, X: 3, Y: 4, Old: 1, New: 2, Val: 9, Program: program})
	})
	if allocs != 0 {
		t.Errorf("Emit allocates %.2f per event, want 0", allocs)
	}
	tagged := Tagged{Sink: r, Program: program}
	allocs = testing.AllocsPerRun(200, func() {
		tagged.Emit(Event{Type: EvTraceBuilt, TraceID: 7, Val: 12})
	})
	if allocs != 0 {
		t.Errorf("Tagged.Emit allocates %.2f per event, want 0", allocs)
	}
}

// TestEncoderZeroAllocSteadyState pins the read side: once the destination
// buffer has grown, re-encoding events allocates nothing.
func TestEncoderZeroAllocSteadyState(t *testing.T) {
	var enc Encoder
	ev := Event{Seq: 123, UnixNano: 1700000000000000000, Type: EvNodeState,
		X: 10, Y: 11, Old: 1, New: 3, Val: 12, Program: "soot"}
	buf := make([]byte, 0, 512)
	allocs := testing.AllocsPerRun(100, func() {
		buf = enc.AppendText(buf[:0], ev)
		buf = enc.AppendJSON(buf[:0], ev)
	})
	if allocs != 0 {
		t.Errorf("encoder allocates %.2f per event, want 0", allocs)
	}
}

func TestEncoderTextShape(t *testing.T) {
	var enc Encoder
	cases := []struct {
		ev   Event
		want []string
	}{
		{Event{Seq: 7, Type: EvNodeState, X: 1, Y: 2, Old: 1, New: 2, Val: 3, Program: "p"},
			[]string{"000007", "node-state", "(1,2)", "weak->strong", "best=3", "[p]"}},
		{Event{Type: EvTraceBuilt, TraceID: 4, Val: 9}, []string{"trace-built", "trace=4", "blocks=9"}},
		{Event{Type: EvTraceEvicted, TraceID: 2, Val: 17}, []string{"trace-evicted", "trace=2", "heat=17"}},
		{Event{Type: EvMode, Old: 3, New: 0}, []string{"mode", "trace->plain"}},
		{Event{Type: EvMode, Old: 3, New: 4}, []string{"mode", "trace->trace-deploy"}},
		{Event{Type: EvQuarantine, Val: 3}, []string{"quarantine", "panics=3"}},
		{Event{Type: EvQueueSaturated, Val: 64}, []string{"queue-saturated", "depth=64"}},
	}
	for _, c := range cases {
		got := string(enc.AppendText(nil, c.ev))
		for _, w := range c.want {
			if !strings.Contains(got, w) {
				t.Errorf("AppendText(%v) = %q, missing %q", c.ev.Type, got, w)
			}
		}
	}
}

// TestEncoderJSONMatchesEncodingJSON pins the hand-rolled JSON against the
// reflective form: both must decode to the same event.
func TestEncoderJSONMatchesEncodingJSON(t *testing.T) {
	var enc Encoder
	ev := Event{Seq: 5, UnixNano: 99, Type: EvTraceEvicted, X: -1, Y: -1, TraceID: 8, Val: 3, Program: "x"}
	hand := enc.AppendJSON(nil, ev)
	var fromHand, fromStd Event
	if err := json.Unmarshal(hand, &fromHand); err != nil {
		t.Fatalf("hand-rolled JSON invalid: %v\n%s", err, hand)
	}
	std, err := json.Marshal(ev)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(std, &fromStd); err != nil {
		t.Fatal(err)
	}
	if fromHand != fromStd {
		t.Errorf("hand %+v != std %+v", fromHand, fromStd)
	}
}

func TestEventTypeJSONRoundTrip(t *testing.T) {
	for _, name := range EventTypeNames() {
		et, ok := ParseEventType(name)
		if !ok {
			t.Fatalf("ParseEventType(%q) failed", name)
		}
		b, err := json.Marshal(et)
		if err != nil {
			t.Fatal(err)
		}
		if string(b) != `"`+name+`"` {
			t.Errorf("marshal %v = %s", et, b)
		}
		var back EventType
		if err := json.Unmarshal(b, &back); err != nil || back != et {
			t.Errorf("round trip %v -> %v (%v)", et, back, err)
		}
	}
	if _, ok := ParseEventType("bogus"); ok {
		t.Error("ParseEventType accepted bogus name")
	}
	var et EventType
	if err := json.Unmarshal([]byte(`"bogus"`), &et); err == nil {
		t.Error("UnmarshalJSON accepted bogus name")
	}
}

func TestRingConcurrentEmit(t *testing.T) {
	r := NewRing(128)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				r.Emit(Event{Type: EvTraceBuilt, Val: int64(i)})
			}
		}()
	}
	wg.Wait()
	if r.Total() != 4000 {
		t.Errorf("Total = %d, want 4000", r.Total())
	}
	tail := r.Tail(nil, 0)
	if len(tail) != 128 {
		t.Fatalf("held %d, want 128", len(tail))
	}
	for i := 1; i < len(tail); i++ {
		if tail[i].Seq != tail[i-1].Seq+1 {
			t.Fatalf("tail seq not contiguous at %d: %d then %d", i, tail[i-1].Seq, tail[i].Seq)
		}
	}
}
