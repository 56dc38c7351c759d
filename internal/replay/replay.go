// Package replay implements deterministic traffic record/replay: a compact,
// versioned, checksummed log of the request stream offered to the serving
// layer — per record the program reference (workload name or inline source),
// its registry content key when known, the dispatch mode, the profiler
// parameter overrides, the step/deadline budgets, a client seed, and the
// arrival-time delta since the previous record — so a captured mixed-tenant
// storm can be replayed byte-for-byte in CI and against a live daemon.
//
// The log is a *submission* transcript, not an execution transcript: it
// records what traffic was offered (including requests the service may have
// refused under backpressure), and replaying it re-offers exactly that
// stream. Because program execution is deterministic given the same request,
// replaying a log in order against a cold one-worker service reproduces
// every per-program counter exactly — which is what turns a
// production incident into a regression test.
//
// Encode/Decode follow the internal/snapshot discipline: a magic version
// line doubling as the file header, varint-packed records, a CRC32-IEEE
// trailer, and a bounded decoder that never trusts a hostile length field
// (see FuzzReplayDecodeNeverPanics).
package replay

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
)

// Schema is the format tag; with a trailing newline it is also the file
// magic, so `head -1` on a .trlog file identifies it.
const Schema = "tracevm/replay/v1"

// FileExt is the conventional on-disk suffix for traffic logs.
const FileExt = ".trlog"

// Program-reference kinds: how Record.Workload/Source are interpreted.
const (
	// RefWorkload: the record names a built-in workload (Record.Workload).
	RefWorkload uint8 = iota
	// RefMiniJava: the record carries inline MiniJava source (Record.Source).
	RefMiniJava
	// RefJasm: the record carries inline jasm assembly (Record.Source).
	RefJasm

	numRefKinds
)

// Record is one submitted request. Exactly one of Workload (Kind ==
// RefWorkload) or Source (Kind == RefMiniJava/RefJasm) is set.
type Record struct {
	// Kind says how the program reference is interpreted (Ref* constants).
	Kind uint8
	// Workload is the built-in benchmark name (Kind == RefWorkload).
	Workload string
	// Source is the inline program text (Kind == RefMiniJava/RefJasm).
	Source string
	// Key is the registry content key of the resolved program, recorded for
	// correlation with snapshots and per-program metrics; empty when the
	// recording client never learned it (a hand-built log). Replay
	// re-resolves from the reference, never from the key.
	Key string

	// Mode is the requested dispatch configuration.
	Mode core.Mode
	// Threshold/StartDelay/DecayInterval are the profiler parameter
	// overrides of the request (zero = service default).
	Threshold     float64
	StartDelay    int32
	DecayInterval uint32
	// MaxSteps is the request's instruction budget (0 = unlimited).
	MaxSteps int64
	// Timeout is the request's deadline (0 = service default).
	Timeout time.Duration
	// Seed is free client entropy: a storm author records its draw seed
	// here so the log is self-describing, and a replaying client may key
	// per-request randomness (retry jitter) on it.
	Seed uint64
	// Delta is the arrival-time gap since the previous record (0 for the
	// first); the as-recorded pacing replays these gaps.
	Delta time.Duration
}

// Validate checks the internal consistency of a record (the same rules the
// decoder enforces), so recorders refuse malformed records instead of
// writing a log that will not replay.
func (r *Record) Validate() error {
	switch r.Kind {
	case RefWorkload:
		if r.Workload == "" || r.Source != "" {
			return fmt.Errorf("%w: workload record needs Workload and no Source", ErrCorrupt)
		}
	case RefMiniJava, RefJasm:
		if r.Source == "" || r.Workload != "" {
			return fmt.Errorf("%w: source record needs Source and no Workload", ErrCorrupt)
		}
	default:
		return fmt.Errorf("%w: unknown program reference kind %d", ErrCorrupt, r.Kind)
	}
	if r.Mode > core.ModeTraceDeploy {
		return fmt.Errorf("%w: unknown mode %d", ErrCorrupt, r.Mode)
	}
	if r.Threshold < 0 || r.Threshold > 1 {
		return fmt.Errorf("%w: threshold %v outside [0,1]", ErrCorrupt, r.Threshold)
	}
	if r.StartDelay < 0 {
		return fmt.Errorf("%w: negative start delay", ErrCorrupt)
	}
	if r.MaxSteps < 0 {
		return fmt.Errorf("%w: negative step budget", ErrCorrupt)
	}
	if r.Timeout < 0 || r.Delta < 0 {
		return fmt.Errorf("%w: negative duration", ErrCorrupt)
	}
	return nil
}

// Log is a decoded traffic log: the records in arrival order.
type Log struct {
	Records []Record
}

// Duration sums the arrival deltas — the recorded span of the stream.
func (l *Log) Duration() time.Duration {
	var d time.Duration
	for i := range l.Records {
		d += l.Records[i].Delta
	}
	return d
}

// Programs returns the distinct program references in first-seen order,
// rendered as human-readable labels (workload names, "minijava:…"/"jasm:…"
// for inline sources). Distinctness is by full reference, not by label —
// two inline sources sharing a prefix are two programs.
func (l *Log) Programs() []string {
	seen := make(map[string]bool)
	var out []string
	for i := range l.Records {
		r := &l.Records[i]
		id := string(rune(r.Kind)) + "\x00" + r.Workload + r.Source
		if !seen[id] {
			seen[id] = true
			out = append(out, r.label())
		}
	}
	return out
}

func (r *Record) label() string {
	switch r.Kind {
	case RefWorkload:
		return r.Workload
	case RefMiniJava:
		return "minijava:" + shortRef(r.Source)
	case RefJasm:
		return "jasm:" + shortRef(r.Source)
	}
	return "invalid"
}

func shortRef(s string) string {
	if len(s) > 24 {
		return s[:24] + "…"
	}
	return s
}

// Rejection causes. Every non-nil Decode error wraps exactly one of these,
// mirroring the internal/snapshot codec contract.
var (
	ErrBadMagic = errors.New("replay: not a tracevm traffic log")
	ErrVersion  = errors.New("replay: unsupported traffic log version")
	ErrChecksum = errors.New("replay: checksum mismatch")
	ErrCorrupt  = errors.New("replay: corrupt payload")
)
