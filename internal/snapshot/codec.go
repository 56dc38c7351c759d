package snapshot

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"repro/internal/cfg"
	"repro/internal/frame"
	"repro/internal/profile"
)

// Binary layout, inside internal/frame's magic line and CRC32 trailer (all
// integers varint/uvarint, all fixed words little-endian):
//
//	magic     "tracevm/snapshot/v1\n"
//	payload   str programKey · str programName
//	          varint startDelay · f64 threshold · uvarint decayInterval
//	          uvarint |nodes| · nodes
//	          uvarint |traces| · traces
//	          uvarint |loopHeaders| · block IDs
//	trailer   u32 CRC32-IEEE over magic+payload
//
//	node      uvarint X · uvarint Y · u8 state · varint startDelay
//	          uvarint best+1 (0 = none) · uvarint |edges| · (uvarint Z · uvarint count)*
//	          edges strictly ascending by Z
//	trace     uvarint |blocks| · block IDs · f64 expectedCompletion
//	          uvarint |entryFrom| · block IDs
//	str       uvarint length · bytes
//
// Decode never trusts a length field for allocation: frame.Reader caps every
// count by the bytes remaining.

// Rejection causes. Every non-nil Decode error wraps exactly one of these,
// so callers can count and report rejection reasons without string matching.
var (
	ErrBadMagic     = errors.New("snapshot: not a tracevm snapshot")
	ErrVersion      = errors.New("snapshot: unsupported snapshot version")
	ErrChecksum     = errors.New("snapshot: checksum mismatch")
	ErrCorrupt      = errors.New("snapshot: corrupt payload")
	ErrWrongProgram = errors.New("snapshot: snapshot keyed to a different program")
)

// maxStringLen bounds the program key/name fields; both are short
// identifiers, never documents.
const maxStringLen = 4096

var format = frame.Format{
	Prefix:   "tracevm/snapshot/",
	Magic:    Schema + "\n",
	BadMagic: ErrBadMagic, Version: ErrVersion, Checksum: ErrChecksum, Corrupt: ErrCorrupt,
}

// Encode serializes a snapshot. The inverse of Decode; encoding is
// deterministic, so byte-equality of two encodings means state-equality.
func Encode(s *Snapshot) []byte {
	// Rough pre-size: fixed header plus a small multiple of element counts.
	n := len(format.Magic) + len(s.ProgramKey) + len(s.Program) + 64
	for i := range s.Nodes {
		n += 16 + 6*len(s.Nodes[i].Edges)
	}
	for i := range s.Traces {
		n += 16 + 3*(len(s.Traces[i].Blocks)+len(s.Traces[i].EntryFrom))
	}
	b := make([]byte, 0, n)

	b = append(b, format.Magic...)
	b = frame.AppendString(b, s.ProgramKey)
	b = frame.AppendString(b, s.Program)
	b = binary.AppendVarint(b, int64(s.Params.StartDelay))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(s.Params.Threshold))
	b = binary.AppendUvarint(b, uint64(s.Params.DecayInterval))

	b = binary.AppendUvarint(b, uint64(len(s.Nodes)))
	for i := range s.Nodes {
		ns := &s.Nodes[i]
		b = binary.AppendUvarint(b, uint64(ns.X))
		b = binary.AppendUvarint(b, uint64(ns.Y))
		b = append(b, byte(ns.State))
		b = binary.AppendVarint(b, int64(ns.StartDelay))
		best := uint64(0)
		if ns.Best != cfg.NoBlock {
			best = uint64(ns.Best) + 1
		}
		b = binary.AppendUvarint(b, best)
		b = binary.AppendUvarint(b, uint64(len(ns.Edges)))
		for _, e := range ns.Edges {
			b = binary.AppendUvarint(b, uint64(e.Z))
			b = binary.AppendUvarint(b, uint64(e.Count))
		}
	}

	b = binary.AppendUvarint(b, uint64(len(s.Traces)))
	for i := range s.Traces {
		ts := &s.Traces[i]
		b = binary.AppendUvarint(b, uint64(len(ts.Blocks)))
		for _, id := range ts.Blocks {
			b = binary.AppendUvarint(b, uint64(id))
		}
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(ts.ExpectedCompletion))
		b = binary.AppendUvarint(b, uint64(len(ts.EntryFrom)))
		for _, id := range ts.EntryFrom {
			b = binary.AppendUvarint(b, uint64(id))
		}
	}

	b = binary.AppendUvarint(b, uint64(len(s.LoopHeaders)))
	for _, id := range s.LoopHeaders {
		b = binary.AppendUvarint(b, uint64(id))
	}

	return frame.Seal(b)
}

// Decode parses and validates an encoded snapshot. It never panics on
// arbitrary input (see FuzzSnapshotDecodeNeverPanics) and returns an error
// wrapping one of the Err* rejection causes for anything malformed:
// truncation, trailing garbage, bad checksum, unknown version, or payload
// values that violate the graph invariants (unsorted edges, out-of-range
// states or counters, non-finite probabilities).
func Decode(data []byte) (*Snapshot, error) {
	d, err := format.Open(data)
	if err != nil {
		return nil, err
	}
	s := &Snapshot{
		ProgramKey: d.Str(maxStringLen),
		Program:    d.Str(maxStringLen),
	}
	s.Params.StartDelay = int32(d.Varint(math.MinInt32, math.MaxInt32))
	s.Params.Threshold = d.F64()
	s.Params.DecayInterval = uint32(d.Uvarint(math.MaxUint32))

	nNodes := d.Count()
	if d.Err() == nil && nNodes > 0 {
		s.Nodes = make([]profile.NodeSnapshot, 0, nNodes)
	}
	for i := 0; i < nNodes && d.Err() == nil; i++ {
		ns := profile.NodeSnapshot{
			X:     block(&d),
			Y:     block(&d),
			State: profile.State(d.Uvarint(uint64(profile.StateUnique))),
		}
		ns.StartDelay = int32(d.Varint(-1, math.MaxInt32))
		if best := d.Uvarint(uint64(cfg.NoBlock)); best == 0 {
			ns.Best = cfg.NoBlock
		} else {
			ns.Best = cfg.BlockID(best - 1)
		}
		nEdges := d.Count()
		if d.Err() == nil && nEdges > 0 {
			ns.Edges = make([]profile.EdgeSnapshot, 0, nEdges)
		}
		prevZ := cfg.NoBlock
		for j := 0; j < nEdges && d.Err() == nil; j++ {
			e := profile.EdgeSnapshot{
				Z:     block(&d),
				Count: uint16(d.Uvarint(math.MaxUint16)),
			}
			if d.Err() == nil && (e.Count == 0 || (prevZ != cfg.NoBlock && e.Z <= prevZ)) {
				d.Fail("node %d edge %d violates sorted-positive invariant", i, j)
			}
			prevZ = e.Z
			ns.Edges = append(ns.Edges, e)
		}
		s.Nodes = append(s.Nodes, ns)
	}

	nTraces := d.Count()
	if d.Err() == nil && nTraces > 0 {
		s.Traces = make([]TraceState, 0, nTraces)
	}
	for i := 0; i < nTraces && d.Err() == nil; i++ {
		var ts TraceState
		nBlocks := d.Count()
		if d.Err() == nil && nBlocks == 0 {
			d.Fail("trace %d has no blocks", i)
		}
		for j := 0; j < nBlocks && d.Err() == nil; j++ {
			ts.Blocks = append(ts.Blocks, block(&d))
		}
		ts.ExpectedCompletion = d.F64()
		if d.Err() == nil && !(ts.ExpectedCompletion >= 0 && ts.ExpectedCompletion <= 1) {
			d.Fail("trace %d completion probability out of [0,1]", i)
		}
		nFrom := d.Count()
		for j := 0; j < nFrom && d.Err() == nil; j++ {
			ts.EntryFrom = append(ts.EntryFrom, block(&d))
		}
		s.Traces = append(s.Traces, ts)
	}

	nHdrs := d.Count()
	for i := 0; i < nHdrs && d.Err() == nil; i++ {
		s.LoopHeaders = append(s.LoopHeaders, block(&d))
	}

	if err := d.End(); err != nil {
		return nil, err
	}
	if err := s.Params.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return s, nil
}

// block reads a block ID; cfg.NoBlock itself is not encodable as a real ID.
func block(d *frame.Reader) cfg.BlockID {
	return cfg.BlockID(d.Uvarint(uint64(cfg.NoBlock) - 1))
}
