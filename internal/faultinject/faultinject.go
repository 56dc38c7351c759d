// Package faultinject is the deterministic chaos harness for the trace VM
// service: seedable injectors that drive the system into its degradation
// paths — signal storms that churn the trace cache, delayed block dispatch,
// worker panics, and (combined with tight cache budgets) forced eviction
// pressure — so the robustness machinery can be tested instead of trusted.
//
// Everything is deterministic by construction: randomness comes from a
// seeded SplitMix64 stream, and the serving layer's mode controller counts
// runs rather than time, so a failing chaos run replays exactly. The injectors plug into the serving
// layer through the serve.Injector seam and cost nothing when absent.
package faultinject

// Rand is a tiny seedable PRNG (SplitMix64). It is not safe for concurrent
// use; derive one stream per injection site.
type Rand struct{ state uint64 }

// NewRand returns a generator seeded with seed.
func NewRand(seed uint64) *Rand { return &Rand{state: seed} }

// Uint64 returns the next value of the stream.
func (r *Rand) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	x := r.state
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Intn returns a value in [0, n).
func (r *Rand) Intn(n int) int { return int(r.Uint64() % uint64(n)) }
