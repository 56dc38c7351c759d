package repro

import "repro/internal/profile"

// ResolvedParams applies opts over the defaults and reports the resulting
// tuning parameters — test-only visibility into option merge order.
func ResolvedParams(opts ...Option) Params {
	c := config{mode: ModeTrace, params: profile.DefaultParams()}
	for _, o := range opts {
		o(&c)
	}
	return Params{
		Threshold:       c.params.Threshold,
		StartDelay:      c.params.StartDelay,
		DecayInterval:   c.params.DecayInterval,
		MaxTraces:       c.cache.MaxTraces,
		MaxCachedBlocks: c.cache.MaxCachedBlocks,
	}
}
