package replay

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/frame"
)

// Binary layout, inside internal/frame's magic line and CRC32 trailer (all
// integers varint/uvarint, fixed words little-endian):
//
//	magic     "tracevm/replay/v1\n"
//	payload   uvarint |records| · records
//	trailer   u32 CRC32-IEEE over magic+payload
//
//	record    u8 refKind · str ref (workload name or source text) · str key
//	          u8 mode · f64 threshold · varint startDelay · uvarint decay
//	          varint maxSteps · varint timeoutNs · uvarint seed
//	          uvarint deltaNs
//	str       uvarint length · bytes
//
// As in internal/snapshot, Decode never trusts a length field for
// allocation: frame.Reader caps every count by the bytes remaining.

const (
	magic = Schema + "\n"

	// maxRefLen bounds inline source text (matching the daemon's 1 MiB
	// request body cap); maxKeyLen bounds the content key, a short hash.
	maxRefLen = 1 << 20
	maxKeyLen = 128
)

var format = frame.Format{
	Prefix:   "tracevm/replay/",
	Magic:    magic,
	BadMagic: ErrBadMagic, Version: ErrVersion, Checksum: ErrChecksum, Corrupt: ErrCorrupt,
}

// Encode serializes a log. Encoding is deterministic: byte-equality of two
// encodings means stream-equality, which is what lets a committed fixture be
// pinned against its generator.
func Encode(l *Log) []byte {
	n := len(magic) + 16
	for i := range l.Records {
		n += 48 + len(l.Records[i].Workload) + len(l.Records[i].Source) + len(l.Records[i].Key)
	}
	b := make([]byte, 0, n)

	b = append(b, magic...)
	b = binary.AppendUvarint(b, uint64(len(l.Records)))
	for i := range l.Records {
		r := &l.Records[i]
		b = append(b, r.Kind)
		ref := r.Workload
		if r.Kind != RefWorkload {
			ref = r.Source
		}
		b = frame.AppendString(b, ref)
		b = frame.AppendString(b, r.Key)
		b = append(b, byte(r.Mode))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(r.Threshold))
		b = binary.AppendVarint(b, int64(r.StartDelay))
		b = binary.AppendUvarint(b, uint64(r.DecayInterval))
		b = binary.AppendVarint(b, r.MaxSteps)
		b = binary.AppendVarint(b, int64(r.Timeout))
		b = binary.AppendUvarint(b, r.Seed)
		b = binary.AppendUvarint(b, uint64(r.Delta))
	}
	return frame.Seal(b)
}

// Decode parses and validates an encoded traffic log. It never panics on
// arbitrary input (see FuzzReplayDecodeNeverPanics) and returns an error
// wrapping one of the Err* causes for anything malformed: truncation,
// trailing garbage, bad checksum, unknown version, or records violating
// Validate.
func Decode(data []byte) (*Log, error) {
	d, err := format.Open(data)
	if err != nil {
		return nil, err
	}
	n := d.Count()
	l := &Log{}
	if d.Err() == nil && n > 0 {
		l.Records = make([]Record, 0, n)
	}
	for i := 0; i < n && d.Err() == nil; i++ {
		var r Record
		r.Kind = d.U8()
		if d.Err() == nil && r.Kind >= numRefKinds {
			d.Fail("record %d: unknown reference kind %d", i, r.Kind)
		}
		ref := d.Str(maxRefLen)
		if r.Kind == RefWorkload {
			r.Workload = ref
		} else {
			r.Source = ref
		}
		r.Key = d.Str(maxKeyLen)
		r.Mode = core.Mode(d.Uvarint(uint64(core.ModeTraceDeploy)))
		r.Threshold = d.F64()
		if d.Err() == nil && (r.Threshold < 0 || r.Threshold > 1) {
			d.Fail("record %d: threshold %v outside [0,1]", i, r.Threshold)
		}
		r.StartDelay = int32(d.Varint(0, math.MaxInt32))
		r.DecayInterval = uint32(d.Uvarint(math.MaxUint32))
		r.MaxSteps = d.Varint(0, math.MaxInt64)
		r.Timeout = time.Duration(d.Varint(0, math.MaxInt64))
		r.Seed = d.Uvarint(math.MaxUint64)
		r.Delta = time.Duration(d.Uvarint(math.MaxInt64))
		if d.Err() == nil {
			if err := r.Validate(); err != nil {
				return nil, fmt.Errorf("record %d: %w", i, err)
			}
		}
		l.Records = append(l.Records, r)
	}
	if err := d.End(); err != nil {
		return nil, err
	}
	return l, nil
}

// Save encodes l and commits it to path atomically (with the snapshot
// store's fsync discipline, so a committed log survives a crash).
func Save(path string, l *Log) error { return frame.WriteAtomic(path, Encode(l)) }

// Load reads and decodes the traffic log at path. I/O failures (os errors)
// are distinguishable from format rejections (the typed codec errors).
func Load(path string) (*Log, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Decode(data)
}
