package frame

import (
	"encoding/binary"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var (
	errMagic   = errors.New("test: bad magic")
	errVersion = errors.New("test: version")
	errSum     = errors.New("test: checksum")
	errCorrupt = errors.New("test: corrupt")

	testFormat = Format{
		Prefix: "tracevm/test/", Magic: "tracevm/test/v1\n",
		BadMagic: errMagic, Version: errVersion, Checksum: errSum, Corrupt: errCorrupt,
	}
)

func sealed(payload ...byte) []byte {
	return Seal(append([]byte(testFormat.Magic), payload...))
}

// TestOpenRejections: each container defect maps to exactly one of the
// format's typed causes, and a sealed encoding opens onto its payload.
func TestOpenRejections(t *testing.T) {
	good := sealed(7)
	flipped := append([]byte(nil), good...)
	flipped[len(testFormat.Magic)] ^= 0x40
	v2 := Seal([]byte("tracevm/test/v2\n\x07"))

	for _, tc := range []struct {
		name string
		data []byte
		want error
	}{
		{"empty", nil, errMagic},
		{"other format", []byte("tracevm/other/v1\n"), errMagic},
		{"no newline", []byte("tracevm/test/" + strings.Repeat("9", 40)), errMagic},
		{"future version", v2, errVersion},
		{"magic only", []byte(testFormat.Magic), errCorrupt},
		{"flipped payload", flipped, errSum},
		{"truncated", good[:len(good)-1], errSum},
	} {
		if _, err := testFormat.Open(tc.data); !errors.Is(err, tc.want) {
			t.Errorf("%s: Open = %v, want %v", tc.name, err, tc.want)
		}
	}

	r, err := testFormat.Open(good)
	if err != nil {
		t.Fatalf("Open(good): %v", err)
	}
	if got := r.U8(); got != 7 || r.End() != nil {
		t.Errorf("payload byte = %d, End = %v", got, r.End())
	}
}

// TestReaderBounds: every bound the two codecs rely on — value limits, counts
// capped by the bytes remaining, string limits, finite floats, trailing
// bytes — rejects with the Corrupt cause, the first failure sticks, and
// reads after it return zero values.
func TestReaderBounds(t *testing.T) {
	open := func(payload ...byte) Reader {
		r, err := testFormat.Open(sealed(payload...))
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		return r
	}
	nan := binary.LittleEndian.AppendUint64(nil, math.Float64bits(math.NaN()))
	inf := binary.LittleEndian.AppendUint64(nil, math.Float64bits(math.Inf(-1)))
	huge := binary.AppendUvarint(nil, 1<<60)

	for name, read := range map[string]func() Reader{
		"uvarint over limit": func() Reader { r := open(9); r.Uvarint(8); return r },
		"uvarint truncated":  func() Reader { r := open(0x80); r.Uvarint(math.MaxUint64); return r },
		"varint below range": func() Reader { r := open(binary.AppendVarint(nil, -2)...); r.Varint(-1, 5); return r },
		"varint truncated":   func() Reader { r := open(); r.Varint(0, 5); return r },
		"hostile count":      func() Reader { r := open(huge...); r.Count(); return r },
		"count over rest":    func() Reader { r := open(3, 0, 0); r.Count(); return r },
		"string over limit":  func() Reader { r := open(3, 'a', 'b', 'c'); _ = r.Str(2); return r },
		"string truncated":   func() Reader { r := open(3, 'a'); _ = r.Str(8); return r },
		"float NaN":          func() Reader { r := open(nan...); r.F64(); return r },
		"float Inf":          func() Reader { r := open(inf...); r.F64(); return r },
		"float truncated":    func() Reader { r := open(1, 2, 3); r.F64(); return r },
		"byte truncated":     func() Reader { r := open(); r.U8(); return r },
		"trailing bytes":     func() Reader { r := open(1, 2); r.U8(); return r },
	} {
		r := read()
		if err := r.End(); !errors.Is(err, errCorrupt) {
			t.Errorf("%s: End = %v, want the Corrupt cause", name, err)
		}
	}

	r := open(9, 1)
	r.Uvarint(8)
	first := r.Err()
	if r.U8() != 0 || r.Count() != 0 || r.Str(4) != "" || r.F64() != 0 || r.Varint(0, 9) != 0 {
		t.Error("reads after a failure returned non-zero values")
	}
	r.Fail("later")
	if r.End() != first {
		t.Errorf("first failure did not stick: %v then %v", first, r.End())
	}

	r = open(AppendString(binary.AppendVarint([]byte{2}, -7), "hi")...)
	if n, v, s := r.Count(), r.Varint(-9, 0), r.Str(2); n != 2 || v != -7 || s != "hi" || r.End() != nil {
		t.Errorf("in-bounds reads = %d %d %q, End = %v", n, v, s, r.End())
	}
}

func TestWriteAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f.bin")
	for _, want := range []string{"first", "second"} {
		if err := WriteAtomic(path, []byte(want)); err != nil {
			t.Fatalf("WriteAtomic: %v", err)
		}
		if got, err := os.ReadFile(path); err != nil || string(got) != want {
			t.Fatalf("read back %q, %v; want %q", got, err, want)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) != 1 {
		t.Errorf("directory holds %d entries (%v), want only the committed file", len(entries), err)
	}
	if err := WriteAtomic(filepath.Join(dir, "missing", "f.bin"), nil); err == nil {
		t.Error("write into a missing directory succeeded")
	}
}
