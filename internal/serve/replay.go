package serve

import (
	"context"

	"repro/internal/replay"
)

// This file is the serving layer's record/replay seam: requests tap into a
// replay.Recorder at submission, and a recorded log replays through the
// same Do path that live traffic takes.

// Runner executes one request. Service.Do is a Runner; cmd/tracevmd wraps
// an HTTP client into one, so log replay drives an embedded service and a
// remote daemon alike.
type Runner func(ctx context.Context, req Request) (*Response, error)

// RecordFromRequest converts a submitted request into its log record. key is
// the resolved registry content key (recorded for correlation; replay
// re-resolves from the program reference).
func RecordFromRequest(req Request, key string) replay.Record {
	rec := replay.Record{
		Key:           key,
		Mode:          req.Mode,
		Threshold:     req.Threshold,
		StartDelay:    req.StartDelay,
		DecayInterval: req.DecayInterval,
		MaxSteps:      req.MaxSteps,
		Timeout:       req.Timeout,
	}
	if req.Workload != "" {
		rec.Kind = replay.RefWorkload
		rec.Workload = req.Workload
	} else {
		rec.Source = req.Source
		switch req.Kind {
		case KindJasm:
			rec.Kind = replay.RefJasm
		default:
			rec.Kind = replay.RefMiniJava
		}
	}
	return rec
}

// RequestFromRecord converts a log record back into the request it was
// recorded from.
func RequestFromRecord(rec replay.Record) Request {
	req := Request{
		Mode:          rec.Mode,
		Threshold:     rec.Threshold,
		StartDelay:    rec.StartDelay,
		DecayInterval: rec.DecayInterval,
		MaxSteps:      rec.MaxSteps,
		Timeout:       rec.Timeout,
	}
	switch rec.Kind {
	case replay.RefWorkload:
		req.Workload = rec.Workload
	case replay.RefJasm:
		req.Source, req.Kind = rec.Source, KindJasm
	default:
		req.Source, req.Kind = rec.Source, KindMiniJava
	}
	return req
}

// record taps one resolved submission into the configured recorder; a nil
// recorder (the production default) is a no-op. Recording what was *offered*
// — before the enqueue attempt — is the point: a log must reproduce the
// storm including the traffic the service refused under backpressure.
func (s *Service) record(req Request, key string) {
	_ = s.cfg.Recorder.Record(RecordFromRequest(req, key))
}

// Replay re-offers a recorded log through the service's normal submission
// path, honoring recorded arrival gaps scaled by opts.Scale. Requests the
// service refuses (backpressure, quarantine) count as failures in the
// result, exactly as they would for live clients.
func (s *Service) Replay(ctx context.Context, l *replay.Log, opts replay.PlayOptions) (replay.PlayResult, error) {
	return replay.Play(ctx, l, opts, func(ctx context.Context, rec replay.Record) error {
		_, err := s.Do(ctx, RequestFromRecord(rec))
		return err
	})
}
