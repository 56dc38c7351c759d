package replay

import (
	"fmt"
	"sync"
	"time"
)

// Recorder accumulates a traffic log from a live request stream. It is safe
// for concurrent use: submissions from any number of clients append in
// arrival order, each stamped with the time elapsed since the previous
// arrival. Recording happens at submission time, off the dispatch hot path,
// and costs one short mutex section per request.
type Recorder struct {
	mu   sync.Mutex
	recs []Record
	last time.Time

	// now substitutes the clock in tests; nil means time.Now.
	now func() time.Time
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// SetClock substitutes the arrival-time source (tests only). Not safe to
// call concurrently with Record.
func (r *Recorder) SetClock(now func() time.Time) { r.now = now }

// Record appends one request, stamping its arrival delta. Malformed records
// are refused (a log that cannot replay must never be written); the caller
// decides whether that is worth reporting. A nil recorder drops the record,
// so the serving layer needs no guard around an optional tap. It runs on
// the serving layer's per-request path, so it must not allocate beyond the
// amortized log append.
//
//tracevm:hotpath
//tracevm:allow-alloc (one copy per request, not per dispatch; the log stores records by value)
func (r *Recorder) Record(rec Record) error {
	if r == nil {
		return nil
	}
	if err := rec.Validate(); err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	t := time.Now()
	if r.now != nil {
		t = r.now()
	}
	if len(r.recs) == 0 || r.last.IsZero() {
		rec.Delta = 0
	} else {
		rec.Delta = t.Sub(r.last)
		if rec.Delta < 0 {
			rec.Delta = 0 // a stepped-back wall clock must not poison the log
		}
	}
	r.last = t
	r.recs = append(r.recs, rec) //tracevm:allow-alloc (amortized growth of the replay log)
	return nil
}

// Len reports the number of records held.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.recs)
}

// Log returns a snapshot copy of the accumulated log; the recorder keeps
// accumulating independently.
func (r *Recorder) Log() *Log {
	if r == nil {
		return &Log{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return &Log{Records: append([]Record(nil), r.recs...)}
}

// Save commits the accumulated log to path atomically. An empty recorder
// refuses to write — a zero-record log is always an operator mistake.
func (r *Recorder) Save(path string) error {
	l := r.Log()
	if len(l.Records) == 0 {
		return fmt.Errorf("replay: nothing recorded, refusing to write %s", path)
	}
	return Save(path, l)
}
