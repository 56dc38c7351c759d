package serve

import (
	"sync"
	"time"

	"repro/internal/obs"
)

// BreakerConfig tunes the per-program churn circuit breaker. The breaker
// watches the trace construct/retire rate of every completed profiled run;
// a program whose phases change so fast that the cache rebuilds traces
// continuously (a signal storm) gets demoted to plain block dispatch for a
// cool-down — the Dynamo-style bail-out — then probed back to tracing.
type BreakerConfig struct {
	// ChurnPerK is the trace construct+retire events per 1000 block
	// dispatches above which a run counts as churny. 0 disables the
	// breaker entirely.
	ChurnPerK float64
	// TripAfter is the number of consecutive churny runs before the
	// breaker opens (default 3).
	TripAfter int
	// Cooldown is how long the breaker stays open before admitting a
	// half-open probe run (default 30s).
	Cooldown time.Duration
}

func (c *BreakerConfig) fillDefaults() {
	if c.ChurnPerK <= 0 {
		return // disabled
	}
	if c.TripAfter <= 0 {
		c.TripAfter = 3
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 30 * time.Second
	}
}

// BreakerState is a circuit breaker's position.
type BreakerState uint8

const (
	// BreakerClosed: the program traces normally.
	BreakerClosed BreakerState = iota
	// BreakerOpen: rebuild churn tripped the breaker; profiled runs are
	// demoted to plain block dispatch until the cool-down expires.
	BreakerOpen
	// BreakerHalfOpen: the cool-down expired; one probe run executes with
	// tracing while the rest stay demoted. A calm probe closes the
	// breaker, a churny one re-opens it.
	BreakerHalfOpen
)

func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	}
	return "invalid"
}

// breaker is the per-registry-entry state machine. All methods are safe for
// concurrent workers.
type breaker struct {
	cfg  BreakerConfig
	name string    // Compiled.Name, for per-program reporting
	sink *obs.Ring // service event ring; nil drops the events

	mu         sync.Mutex
	state      BreakerState
	churnyRuns int       // consecutive churny runs while closed
	openedAt   time.Time // when the breaker last opened
	probing    bool      // a half-open probe run is in flight

	trips   int64 // closed/half-open -> open transitions
	demoted int64 // runs short-circuited to plain dispatch
	probes  int64 // half-open probe runs admitted
}

// setState moves the state machine and emits the transition as an
// observability event. Callers hold b.mu.
func (b *breaker) setState(to BreakerState) {
	if b.state == to {
		return
	}
	b.sink.Emit(obs.Event{
		Type: obs.EvBreaker,
		Old:  uint8(b.state), New: uint8(to),
		X: obs.NoID, Y: obs.NoID, TraceID: obs.NoID,
		Program: b.name,
	})
	b.state = to
}

// plan decides how the next run of this program executes. profiled says the
// request asked for a trace-constructing mode; unprofiled runs carry no
// churn information and pass through untouched. It returns demote (run in
// plain block-dispatch mode) and probe (this run is the half-open probe).
func (b *breaker) plan(now time.Time, profiled bool) (demote, probe bool) {
	if !profiled {
		return false, false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return false, false
	case BreakerOpen:
		if now.Sub(b.openedAt) < b.cfg.Cooldown {
			b.demoted++
			return true, false
		}
		b.setState(BreakerHalfOpen)
		b.probing = true
		b.probes++
		return false, true
	case BreakerHalfOpen:
		if b.probing {
			b.demoted++
			return true, false
		}
		b.probing = true
		b.probes++
		return false, true
	}
	return false, false
}

// observe feeds one finished run back. churnPerK < 0 means the run produced
// no usable churn measurement (it failed or was demoted); such runs never
// close the breaker.
func (b *breaker) observe(now time.Time, churnPerK float64, demoted, probe bool) {
	if demoted {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if probe {
		b.probing = false
		if churnPerK >= 0 && churnPerK <= b.cfg.ChurnPerK {
			b.setState(BreakerClosed)
			b.churnyRuns = 0
			return
		}
		// Still churny (or inconclusive): back to open for another
		// cool-down. Only a measured churny probe counts as a trip.
		b.setState(BreakerOpen)
		b.openedAt = now
		if churnPerK >= 0 {
			b.trips++
		}
		return
	}
	if b.state != BreakerClosed || churnPerK < 0 {
		return // stale observation from a run planned before the trip
	}
	if churnPerK > b.cfg.ChurnPerK {
		b.churnyRuns++
		if b.churnyRuns >= b.cfg.TripAfter {
			b.setState(BreakerOpen)
			b.openedAt = now
			b.churnyRuns = 0
			b.trips++
		}
		return
	}
	b.churnyRuns = 0
}

// snapshotInto accumulates this breaker's counters and state into the
// service snapshot.
func (b *breaker) snapshotInto(s *Snapshot, states map[string]string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	s.BreakerTrips += b.trips
	s.BreakerDemoted += b.demoted
	s.BreakerProbes += b.probes
	switch b.state {
	case BreakerOpen:
		s.OpenBreakers++
	case BreakerHalfOpen:
		s.HalfOpenBreakers++
	}
	states[b.name] = b.state.String()
}
