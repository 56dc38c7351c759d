package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// This file is the span store of the traced run. Spans are recorded from
// the benchmark's own files, around the calls into each layer; they stay in
// memory until the run ends and are then written to spans.json.

// span is one timed interval. Parent is the index of the enclosing span in
// the file's "spans" array (-1 for a root); spans of one request, and of one
// probed program, share RequestID (probes use negative ids).
type span struct {
	Name      string `json:"name"`
	Start     int64  `json:"start"` // ns since the traced run began
	End       int64  `json:"end"`
	Parent    int    `json:"parent"`
	RequestID int    `json:"request_id"`
}

type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), spans: make([]span, 0, 1<<16)}
}

// add records a finished span and returns its index.
func (r *recorder) add(name string, start, end time.Time, parent, request int) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{
		Name: name, Start: int64(start.Sub(r.epoch)), End: int64(end.Sub(r.epoch)),
		Parent: parent, RequestID: request,
	})
	return len(r.spans) - 1
}

// timed runs f inside a span and returns its duration.
func (r *recorder) timed(name string, parent, request int, f func()) time.Duration {
	start := time.Now()
	f()
	end := time.Now()
	r.add(name, start, end, parent, request)
	return end.Sub(start)
}

// begin opens a parent span whose end is set by finish.
func (r *recorder) begin(name string, request int) int {
	now := time.Now()
	return r.add(name, now, now, -1, request)
}

func (r *recorder) finish(id int) {
	end := int64(time.Since(r.epoch))
	r.mu.Lock()
	r.spans[id].End = end
	r.mu.Unlock()
}

// micros returns the durations of every span called name, in microseconds.
func (r *recorder) micros(name string) []float64 {
	var out []float64
	for i := range r.spans {
		if r.spans[i].Name == name {
			out = append(out, float64(r.spans[i].End-r.spans[i].Start)/1e3)
		}
	}
	return out
}

// unattributedShare is the self time of the spans called name — their
// duration minus their direct children's — as a share of their duration:
// the part of a request the trace cannot assign to any layer.
func (r *recorder) unattributedShare(name string) float64 {
	var total, self int64
	for i := range r.spans {
		if r.spans[i].Name == name {
			d := r.spans[i].End - r.spans[i].Start
			total += d
			self += d
		}
	}
	for i := range r.spans {
		if p := r.spans[i].Parent; p >= 0 && r.spans[p].Name == name {
			self -= r.spans[i].End - r.spans[i].Start
		}
	}
	if total == 0 {
		return 0
	}
	return float64(self) / float64(total)
}

// write saves the spans as JSON.
func (r *recorder) write(path, workload string) error {
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Unit     string `json:"unit"`
		Spans    []span `json:"spans"`
	}{workload, "ns", r.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
