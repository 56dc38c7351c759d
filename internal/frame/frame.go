// Package frame is the one framing the on-disk formats share (snapshots in
// internal/snapshot, traffic logs in internal/replay):
//
//	magic     "<prefix><version>\n"
//	payload   varint/uvarint integers, little-endian fixed words,
//	          length-prefixed strings
//	trailer   u32 CRC32-IEEE over magic+payload
//
// A Format names one such file type and the typed errors its decoder
// reports, Open checks the container and hands back a Reader over the
// payload, Seal appends the trailer, and WriteAtomic commits the bytes
// durably. What the payload means stays with each format's own codec.
package frame

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"strings"
)

// Format identifies one framed file type. Every error Open or a Reader
// returns wraps exactly one of the four causes, so each format's callers
// match on that format's own values without string matching.
type Format struct {
	// Prefix is the version-independent head of the magic line
	// ("tracevm/snapshot/"); Magic the whole line this build reads and
	// writes, newline included.
	Prefix, Magic string

	BadMagic, Version, Checksum, Corrupt error
}

// Seal appends the CRC32 trailer over everything written so far (magic and
// payload), completing an encoding.
func Seal(b []byte) []byte {
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
}

// Open checks the container — magic prefix, version line, length, checksum —
// and returns a Reader over the payload between the magic line and the
// trailer.
func (f *Format) Open(data []byte) (Reader, error) {
	if len(data) < len(f.Prefix) || string(data[:len(f.Prefix)]) != f.Prefix {
		return Reader{}, fmt.Errorf("%w (no %q header)", f.BadMagic, f.Prefix)
	}
	nl := strings.IndexByte(string(data[:min(len(data), len(f.Prefix)+16)]), '\n')
	if nl < 0 {
		return Reader{}, fmt.Errorf("%w (unterminated version line)", f.BadMagic)
	}
	if got := string(data[:nl+1]); got != f.Magic {
		return Reader{}, fmt.Errorf("%w %q (want %q)", f.Version,
			strings.TrimSuffix(got, "\n"), strings.TrimSuffix(f.Magic, "\n"))
	}
	if len(data) < nl+1+4 {
		return Reader{}, fmt.Errorf("%w: truncated before checksum", f.Corrupt)
	}
	body, trailer := data[:len(data)-4], data[len(data)-4:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(trailer) {
		return Reader{}, f.Checksum
	}
	return Reader{b: body[len(f.Magic):], corrupt: f.Corrupt}, nil
}

// Reader is a cursor over a payload. The first failure sticks and every
// later read returns a zero value, so parse loops need no per-read error
// plumbing; they test Err to stop early and End to finish.
//
// A Reader never trusts a length field for allocation: every element costs
// at least one encoded byte, so Count caps any count by the bytes remaining
// and a hostile count of 2^60 fails fast instead of allocating.
type Reader struct {
	b       []byte
	err     error
	corrupt error
}

// Err returns the first failure, or nil.
func (r *Reader) Err() error { return r.err }

// Fail records a payload-level rejection (wrapping the format's Corrupt
// cause) unless an earlier one already stuck.
func (r *Reader) Fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s", r.corrupt, fmt.Sprintf(format, args...))
	}
}

// End finishes a parse: the sticky error if any, else a rejection of
// whatever bytes the payload grammar left unread.
func (r *Reader) End() error {
	if r.err == nil && len(r.b) != 0 {
		r.Fail("%d trailing bytes", len(r.b))
	}
	return r.err
}

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	if r.err != nil {
		return 0
	}
	if len(r.b) < 1 {
		r.Fail("truncated byte")
		return 0
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v
}

// Uvarint reads an unsigned varint no greater than limit.
func (r *Reader) Uvarint(limit uint64) uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.Fail("truncated uvarint")
		return 0
	}
	r.b = r.b[n:]
	if v > limit {
		r.Fail("value %d exceeds limit %d", v, limit)
		return 0
	}
	return v
}

// Varint reads a signed varint within [lo, hi].
func (r *Reader) Varint(lo, hi int64) int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b)
	if n <= 0 {
		r.Fail("truncated varint")
		return 0
	}
	r.b = r.b[n:]
	if v < lo || v > hi {
		r.Fail("value %d outside [%d, %d]", v, lo, hi)
		return 0
	}
	return v
}

// Count reads an element count, bounded by the bytes remaining.
func (r *Reader) Count() int {
	return int(r.Uvarint(uint64(len(r.b))))
}

// F64 reads a little-endian float64 and rejects NaN and ±Inf.
func (r *Reader) F64() float64 {
	if r.err != nil {
		return 0
	}
	if len(r.b) < 8 {
		r.Fail("truncated float")
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.b))
	r.b = r.b[8:]
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.Fail("non-finite float")
		return 0
	}
	return v
}

// Str reads a length-prefixed string of at most limit bytes.
func (r *Reader) Str(limit int) string {
	n := int(r.Uvarint(uint64(limit)))
	if r.err != nil {
		return ""
	}
	if n > len(r.b) {
		r.Fail("truncated string of length %d", n)
		return ""
	}
	s := string(r.b[:n])
	r.b = r.b[n:]
	return s
}

// AppendString writes s the way Str reads it.
func AppendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// TempPrefix starts the name of every temp file WriteAtomic creates; a
// directory scrub removes leftovers by it.
const TempPrefix = ".tsnap-"

// WriteAtomic commits bytes via a same-directory temp file, fsync, and
// rename, then fsyncs the parent directory. A crash mid-write never leaves a
// torn file where a loader can see it, and a power cut after return cannot
// lose the rename — the commit is durable, not merely atomic.
func WriteAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, TempPrefix+"*")
	if err != nil {
		return err
	}
	_, werr := tmp.Write(data)
	if werr == nil {
		werr = tmp.Sync()
	}
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		if werr != nil {
			return werr
		}
		return cerr
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory so a just-committed rename survives power loss.
// Filesystems that refuse directory fsync (it is optional in POSIX) don't
// make the commit any less atomic, so those errors are not fatal.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return nil
	}
	defer d.Close()
	_ = d.Sync()
	return nil
}
