package obs

import (
	"strconv"
	"time"
)

// Encoder renders events into caller-provided byte slices, append-style,
// the way strconv does: no per-event allocation once the destination buffer
// has grown to its working size. The daemon's /v1/events handler and the
// `tracevm run -events` dump both drain a ring through one reused encoder, so a
// busy read side does not pressure the collector either.
//
// The zero value is ready to use.
type Encoder struct{}

// AppendText appends a one-line human-readable rendering of e to dst and
// returns the extended slice, e.g.:
//
//	000042 12:04:05.000123 node-state (17,19) weak->strong best=21 [compress]
func (enc *Encoder) AppendText(dst []byte, e Event) []byte {
	dst = appendSeq(dst, e.Seq)
	dst = append(dst, ' ')
	dst = time.Unix(0, e.UnixNano).AppendFormat(dst, "15:04:05.000000")
	dst = append(dst, ' ')
	dst = append(dst, e.Type.String()...)
	switch e.Type {
	case EvNodeState:
		dst = appendPair(dst, e.X, e.Y)
		dst = append(dst, ' ')
		dst = append(dst, stateName(e.Old)...)
		dst = append(dst, "->"...)
		dst = append(dst, stateName(e.New)...)
		dst = append(dst, " best="...)
		dst = strconv.AppendInt(dst, e.Val, 10)
	case EvTraceBuilt, EvTraceReused, EvTraceRetired:
		dst = append(dst, " trace="...)
		dst = strconv.AppendInt(dst, int64(e.TraceID), 10)
		dst = append(dst, " blocks="...)
		dst = strconv.AppendInt(dst, e.Val, 10)
	case EvTraceEvicted:
		dst = append(dst, " trace="...)
		dst = strconv.AppendInt(dst, int64(e.TraceID), 10)
		dst = append(dst, " heat="...)
		dst = strconv.AppendInt(dst, e.Val, 10)
	case EvBreaker:
		dst = append(dst, ' ')
		dst = append(dst, breakerName(e.Old)...)
		dst = append(dst, "->"...)
		dst = append(dst, breakerName(e.New)...)
	case EvQuarantine:
		dst = append(dst, " panics="...)
		dst = strconv.AppendInt(dst, e.Val, 10)
	case EvQueueSaturated:
		dst = append(dst, " depth="...)
		dst = strconv.AppendInt(dst, e.Val, 10)
	}
	if e.Program != "" {
		dst = append(dst, " ["...)
		dst = append(dst, e.Program...)
		dst = append(dst, ']')
	}
	return dst
}

// AppendJSON appends a JSON object rendering of e to dst and returns the
// extended slice. The shape matches Event's encoding/json form, so the two
// paths are interchangeable on the wire; this one just never allocates.
func (enc *Encoder) AppendJSON(dst []byte, e Event) []byte {
	dst = append(dst, `{"seq":`...)
	dst = strconv.AppendUint(dst, e.Seq, 10)
	dst = append(dst, `,"unixNano":`...)
	dst = strconv.AppendInt(dst, e.UnixNano, 10)
	dst = append(dst, `,"type":"`...)
	dst = append(dst, e.Type.String()...)
	dst = append(dst, '"')
	if e.Old != 0 {
		dst = append(dst, `,"old":`...)
		dst = strconv.AppendUint(dst, uint64(e.Old), 10)
	}
	if e.New != 0 {
		dst = append(dst, `,"new":`...)
		dst = strconv.AppendUint(dst, uint64(e.New), 10)
	}
	dst = append(dst, `,"x":`...)
	dst = strconv.AppendInt(dst, int64(e.X), 10)
	dst = append(dst, `,"y":`...)
	dst = strconv.AppendInt(dst, int64(e.Y), 10)
	dst = append(dst, `,"traceId":`...)
	dst = strconv.AppendInt(dst, int64(e.TraceID), 10)
	dst = append(dst, `,"val":`...)
	dst = strconv.AppendInt(dst, e.Val, 10)
	if e.Program != "" {
		dst = append(dst, `,"program":`...)
		dst = strconv.AppendQuote(dst, e.Program)
	}
	return append(dst, '}')
}

// appendSeq renders the sequence number zero-padded to six digits so event
// dumps align; longer sequences widen naturally.
func appendSeq(dst []byte, seq uint64) []byte {
	start := len(dst)
	dst = strconv.AppendUint(dst, seq, 10)
	for len(dst)-start < 6 {
		dst = append(dst, 0)
		copy(dst[start+1:], dst[start:])
		dst[start] = '0'
	}
	return dst
}

func appendPair(dst []byte, x, y int32) []byte {
	dst = append(dst, " ("...)
	dst = strconv.AppendInt(dst, int64(x), 10)
	dst = append(dst, ',')
	dst = strconv.AppendInt(dst, int64(y), 10)
	return append(dst, ')')
}

// stateName mirrors profile.State names without importing the package (obs
// must stay a leaf every layer can import).
func stateName(s uint8) string {
	switch s {
	case 0:
		return "new"
	case 1:
		return "weak"
	case 2:
		return "strong"
	case 3:
		return "unique"
	}
	return "invalid"
}

// breakerName mirrors serve.BreakerState names, same leaf-package reason.
func breakerName(s uint8) string {
	switch s {
	case 0:
		return "closed"
	case 1:
		return "open"
	case 2:
		return "half-open"
	}
	return "invalid"
}
