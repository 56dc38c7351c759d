package serve

import (
	"context"
	"errors"
	"time"
)

// Runner executes one request. Service.Do is a Runner; cmd/tracevmd wraps
// an HTTP client into one, so Backoff and log replay drive an embedded
// service and a remote daemon alike.
type Runner func(ctx context.Context, req Request) (*Response, error)

// Backoff retries a Runner on ErrQueueFull with exponentially growing,
// jittered delays. Backpressure rejection is the service telling the client
// "later", and the jitter keeps a fleet of rejected clients from
// re-converging on the same instant; every other error is returned as-is.
//
// Zero-valued fields take the documented defaults, so Backoff{} is usable.
// The jitter stream is deterministic in Seed, which keeps tests and load
// runs reproducible: same seed, same delays.
type Backoff struct {
	// Attempts is the total number of tries, including the first
	// (default 5).
	Attempts int
	// Base is the delay before the first retry (default 2ms).
	Base time.Duration
	// Max caps the grown delay (default 250ms).
	Max time.Duration
	// Factor multiplies the delay after each retry (default 2).
	Factor float64
	// Jitter is the fraction of each delay that is randomized: a delay d
	// becomes uniform in [d·(1−Jitter/2), d·(1+Jitter/2)] (default 0.5;
	// negative disables jitter).
	Jitter float64
	// Seed selects the deterministic jitter stream.
	Seed uint64
}

// norm returns a copy with defaults filled in.
func (b Backoff) norm() Backoff {
	if b.Attempts <= 0 {
		b.Attempts = 5
	}
	if b.Base <= 0 {
		b.Base = 2 * time.Millisecond
	}
	if b.Max <= 0 {
		b.Max = 250 * time.Millisecond
	}
	if b.Factor < 1 {
		b.Factor = 2
	}
	if b.Jitter == 0 {
		b.Jitter = 0.5
	}
	return b
}

// splitmix64 is the SplitMix64 mixing function — a tiny, seedable,
// high-quality bit mixer, which is all the jitter needs.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Delay returns the pause before the given retry (0-based: Delay(0)
// precedes the second attempt). It is a pure function of the Backoff
// value, so schedules can be inspected without sleeping.
func (b Backoff) Delay(retry int) time.Duration {
	n := b.norm()
	d := float64(n.Base)
	for i := 0; i < retry && d < float64(n.Max); i++ {
		d *= n.Factor
	}
	if d > float64(n.Max) {
		d = float64(n.Max)
	}
	if n.Jitter > 0 {
		u := float64(splitmix64(n.Seed+uint64(retry)+1)>>11) / (1 << 53)
		d *= 1 - n.Jitter/2 + n.Jitter*u
	}
	return time.Duration(d)
}

// Retry runs the request through run, sleeping and retrying while the
// service sheds load with ErrQueueFull. It returns the response, the number
// of retries performed, and the final error: nil on success, the last
// ErrQueueFull if every attempt was rejected, ctx.Err() if the context
// expired during a pause, or the first non-backpressure error immediately.
func (b Backoff) Retry(ctx context.Context, run Runner, req Request) (*Response, int, error) {
	n := b.norm()
	retries := 0
	for attempt := 0; ; attempt++ {
		resp, err := run(ctx, req)
		if err == nil {
			return resp, retries, nil
		}
		if !errors.Is(err, ErrQueueFull) || attempt+1 >= n.Attempts {
			return nil, retries, err
		}
		t := time.NewTimer(n.Delay(attempt))
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return nil, retries, ctx.Err()
		}
		retries++
	}
}
