// Package obs is the zero-allocation observability layer: a fixed-size
// ring-buffer event trace recording *when* the dynamic system changed state
// — a BCG node crossed the correlated/weak boundary, a trace was built,
// retired or evicted, a program's mode controller moved, a program was quarantined,
// the request queue saturated — where the counters in package stats only
// record *how often*.
//
// The design follows the per-worker stats-ring pattern (record locally with
// no synchronization on the hot path, aggregate lazily on read): the
// per-dispatch hot path never emits an event, because events are defined as
// state *transitions* and the steady state of a warmed profiler has none.
// An enabled-but-idle tracer therefore costs the hot path nothing — zero
// allocations and zero synchronization per dispatch — which is what lets
// tracing stay always-on in production. When a transition does happen the
// emitting slow path pays one short mutex section and one struct copy into
// a preallocated buffer; the ring never allocates after construction.
//
// Event is a fixed-size value type with no heap-backed payload of its own
// (the Program tag is a string header referencing the emitter's existing
// name), so constructing and passing one allocates nothing. The Encoder in
// encode.go renders events into caller-provided buffers, append-style, so
// the read side can also run allocation-free once warmed.
package obs

import (
	"fmt"
	"strings"
	"sync"
	"time"
)

// EventType says what changed. The zero value EvNone marks an empty ring
// slot and is never emitted.
type EventType uint8

const (
	EvNone EventType = iota
	// EvNodeState: a BCG node's correlation summary diverged from the last
	// acknowledged one (the profiler signalled the trace cache). X,Y are the
	// node's block pair, Old/New the profile.State values, Val the new best
	// successor block (-1 if none).
	EvNodeState
	// EvTraceBuilt: the cache constructed a new trace. TraceID is its ID,
	// Val its block count.
	EvTraceBuilt
	// EvTraceReused: a reconstruction pass hash-consed an existing trace
	// instead of building a duplicate. TraceID, Val as for EvTraceBuilt.
	EvTraceReused
	// EvTraceRetired: a trace left the dispatch map (invalidation, entry
	// replacement, or eviction — evictions additionally emit EvTraceEvicted,
	// mirroring how stats counts them). TraceID, Val as above.
	EvTraceRetired
	// EvTraceEvicted: the cache budget evicted a trace. TraceID is the
	// victim, Val its heat score at eviction.
	EvTraceEvicted
	// EvMode: a program's mode controller moved to another arm. Old/New
	// are the arms' core.Mode values (plain=0, trace=3, trace-deploy=4).
	EvMode
	// EvQuarantine: a program crossed the panic threshold and is refused
	// from now on. Val is the panic count.
	EvQuarantine
	// EvQueueSaturated: a request was rejected with ErrQueueFull. Val is
	// the queue depth at rejection.
	EvQueueSaturated
	// EvSnapshotSaved: a program's learned profile was committed to durable
	// storage. Val is the snapshot's node count.
	EvSnapshotSaved
	// EvSnapshotLoaded: a stored snapshot was read from disk or installed by
	// a PUT. Val is the snapshot's node count.
	EvSnapshotLoaded
	// EvSnapshotRejected: a snapshot was refused — corrupt, wrong format
	// version, or keyed to a different program.
	EvSnapshotRejected
	// EvEpochMerge: the epoch coordinator merged a program's per-worker
	// profiler shards into a fresh globally derived view. Val is the merged
	// graph's node count.
	EvEpochMerge
	// EvSnapshotQuarantined: the startup scrub moved a corrupt snapshot file
	// to its .corrupt sidecar. Val is the file size in bytes.
	EvSnapshotQuarantined

	numEventTypes
)

var eventTypeNames = [numEventTypes]string{
	EvNone:           "none",
	EvNodeState:      "node-state",
	EvTraceBuilt:     "trace-built",
	EvTraceReused:    "trace-reused",
	EvTraceRetired:   "trace-retired",
	EvTraceEvicted:   "trace-evicted",
	EvMode:           "mode",
	EvQuarantine:     "quarantine",
	EvQueueSaturated: "queue-saturated",

	EvSnapshotSaved:       "snapshot-saved",
	EvSnapshotLoaded:      "snapshot-loaded",
	EvSnapshotRejected:    "snapshot-rejected",
	EvEpochMerge:          "epoch-merge",
	EvSnapshotQuarantined: "snapshot-quarantined",
}

func (t EventType) String() string {
	if int(t) < len(eventTypeNames) {
		return eventTypeNames[t]
	}
	return "invalid"
}

// MarshalJSON serializes the type as its name, so /v1/events reads as
// "trace-evicted" rather than a bare ordinal.
func (t EventType) MarshalJSON() ([]byte, error) {
	return []byte(`"` + t.String() + `"`), nil
}

// UnmarshalJSON accepts the name form produced by MarshalJSON.
func (t *EventType) UnmarshalJSON(b []byte) error {
	s := strings.Trim(string(b), `"`)
	if et, ok := ParseEventType(s); ok {
		*t = et
		return nil
	}
	if s == eventTypeNames[EvNone] {
		*t = EvNone
		return nil
	}
	return fmt.Errorf("obs: unknown event type %q", s)
}

// ParseEventType maps a name back to its type (the /v1/events filter).
func ParseEventType(s string) (EventType, bool) {
	for i, name := range eventTypeNames {
		if name == s && EventType(i) != EvNone {
			return EventType(i), true
		}
	}
	return EvNone, false
}

// EventTypeNames lists the emittable type names, for help text and docs.
func EventTypeNames() []string {
	out := make([]string, 0, numEventTypes-1)
	for i := int(EvNone) + 1; i < int(numEventTypes); i++ {
		out = append(out, eventTypeNames[i])
	}
	return out
}

// Event is one fixed-size observability record. Fields beyond Type are
// payload whose meaning the type defines; unused ones are zero (or -1 for
// block/trace identities, which are valid at 0). Seq and UnixNano are
// assigned by the ring at emission.
type Event struct {
	// Seq is the ring-assigned emission ordinal, monotonically increasing
	// for the ring's lifetime; gaps in a tail reveal overwritten history.
	Seq uint64 `json:"seq"`
	// UnixNano is the emission wall-clock time.
	UnixNano int64 `json:"unixNano"`
	// Type says what changed.
	Type EventType `json:"type"`
	// Old and New carry a state transition (profile.State or mode
	// controller arm), when the type has one.
	Old uint8 `json:"old,omitempty"`
	New uint8 `json:"new,omitempty"`
	// X, Y are the BCG block pair for node events; NoID otherwise.
	X int32 `json:"x"`
	Y int32 `json:"y"`
	// TraceID identifies the trace for trace events; NoID otherwise.
	TraceID int32 `json:"traceId"`
	// Val is the type-specific magnitude: block count, queue depth, heat,
	// best successor.
	Val int64 `json:"val"`
	// Program tags the emitting program in shared (service-level) rings;
	// empty in per-session rings, which serve exactly one program.
	Program string `json:"program,omitempty"`
}

// NoID is the Event.X/Y/TraceID value meaning "not applicable".
const NoID int32 = -1

// Sink receives events. The ring implements it; the profiler, trace cache
// and serving layer emit through it and never see the concrete ring. A nil
// Sink everywhere means tracing is off and costs nothing.
type Sink interface {
	Emit(Event)
}

// Tagged wraps a sink so every event carries a program label — how the
// serving layer funnels per-session events into its shared ring.
type Tagged struct {
	Sink    Sink
	Program string
}

// Emit implements Sink.
func (t Tagged) Emit(e Event) {
	e.Program = t.Program
	t.Sink.Emit(e)
}

// Ring is a fixed-size event trace: the newest Cap events, overwritten
// oldest-first. All storage is allocated at construction; Emit copies into
// it and never allocates. Methods are safe for concurrent use — the mutex
// section is two stores and an index increment, and it is only ever taken
// on a state transition, never per dispatch.
type Ring struct {
	mu  sync.Mutex
	buf []Event
	seq uint64

	// now substitutes the timestamp source in tests; nil means time.Now.
	now func() int64
}

// NewRing returns a ring holding the newest capacity events (minimum 1).
func NewRing(capacity int) *Ring {
	if capacity < 1 {
		capacity = 1
	}
	return &Ring{buf: make([]Event, capacity)}
}

// SetClock substitutes the timestamp source (tests only). Not safe to call
// concurrently with Emit.
func (r *Ring) SetClock(now func() int64) { r.now = now }

// Emit records one event, stamping Seq and UnixNano. A nil ring drops the
// event, so callers holding an optional *Ring need no guard.
//
//tracevm:hotpath
//tracevm:allow-alloc (the ring stores events by value; callers build them as literals)
func (r *Ring) Emit(e Event) {
	if r == nil {
		return
	}
	r.mu.Lock()
	e.Seq = r.seq
	if r.now != nil {
		e.UnixNano = r.now()
	} else {
		e.UnixNano = time.Now().UnixNano()
	}
	r.buf[int(r.seq%uint64(len(r.buf)))] = e //tracevm:allow-alloc (the one store into the ring)
	r.seq++
	r.mu.Unlock()
}

// Cap returns the ring's fixed capacity.
func (r *Ring) Cap() int {
	if r == nil {
		return 0
	}
	return len(r.buf)
}

// Total returns the number of events ever emitted (>= Len; the difference
// is overwritten history).
func (r *Ring) Total() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.seq
}

// Len returns the number of events currently held.
func (r *Ring) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.held()
}

func (r *Ring) held() int {
	if r.seq < uint64(len(r.buf)) {
		return int(r.seq)
	}
	return len(r.buf)
}

// Tail appends the newest n held events to dst in emission order (oldest of
// the tail first) and returns the extended slice. n <= 0 or n > Len means
// all held events. Pass a reused dst to read without allocating.
func (r *Ring) Tail(dst []Event, n int) []Event {
	if r == nil {
		return dst
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	held := r.held()
	if n <= 0 || n > held {
		n = held
	}
	for i := held - n; i < held; i++ {
		// Oldest held event is seq-held; walk forward.
		idx := int((r.seq - uint64(held) + uint64(i)) % uint64(len(r.buf)))
		dst = append(dst, r.buf[idx])
	}
	return dst
}

// TailFunc appends the newest n held events matching keep; n and dst behave
// as in Tail. A nil keep matches everything.
func (r *Ring) TailFunc(dst []Event, n int, keep func(Event) bool) []Event {
	if r == nil {
		return dst
	}
	all := r.Tail(nil, 0)
	if keep != nil {
		kept := all[:0]
		for _, e := range all {
			if keep(e) {
				kept = append(kept, e)
			}
		}
		all = kept
	}
	if n <= 0 || n > len(all) {
		n = len(all)
	}
	return append(dst, all[len(all)-n:]...)
}
