package serve

import "time"

// BreakerConfig is read by nothing: the mode controller (mode.go) replaced
// the churn breaker and has no settings.
//
// Deprecated: kept only for benchmark/traced.go, which still fills in
// Config.Breaker.
type BreakerConfig struct {
	ChurnPerK float64
	TripAfter int
	Cooldown  time.Duration
}
