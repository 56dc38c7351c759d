package replay

import (
	"encoding/binary"
	"errors"
	"flag"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
)

var update = flag.Bool("update", false, "regenerate testdata fixtures")

// crcTable lets the reseal helpers compute a trailer without going through
// the codec under test.
var crcTable = crc32.IEEETable

func sampleLog() *Log {
	return &Log{Records: []Record{
		{Kind: RefWorkload, Workload: "compress", Mode: core.ModeTrace, Seed: 42},
		{
			Kind: RefMiniJava, Source: "class Main { static void main() { Sys.printlnInt(7); } }",
			Key: "abc123", Mode: core.ModeProfile, Threshold: 0.85, StartDelay: 50,
			DecayInterval: 4096, MaxSteps: 1 << 20, Timeout: 250 * time.Millisecond,
			Seed: 7, Delta: 3 * time.Millisecond,
		},
		{Kind: RefJasm, Source: "iconst_1\nireturn\n", Mode: core.ModePlain, Delta: time.Microsecond},
		{Kind: RefWorkload, Workload: "scimark", Mode: core.ModeTraceDeploy, Threshold: 1, Delta: 15 * time.Millisecond},
	}}
}

func TestCodecRoundTrip(t *testing.T) {
	for _, l := range []*Log{{}, sampleLog(), FixtureStormLog()} {
		data := Encode(l)
		got, err := Decode(data)
		if err != nil {
			t.Fatalf("Decode: %v", err)
		}
		if !reflect.DeepEqual(normalize(got), normalize(l)) {
			t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, l)
		}
		if data2 := Encode(got); string(data2) != string(data) {
			t.Fatalf("re-encode not byte-identical")
		}
	}
}

// normalize maps a nil Records slice to empty so DeepEqual compares content.
func normalize(l *Log) *Log {
	if l.Records == nil {
		return &Log{Records: []Record{}}
	}
	return l
}

func TestSaveLoad(t *testing.T) {
	path := filepath.Join(t.TempDir(), "storm"+FileExt)
	l := sampleLog()
	if err := Save(path, l); err != nil {
		t.Fatalf("Save: %v", err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if !reflect.DeepEqual(got, l) {
		t.Fatalf("load mismatch: got %+v want %+v", got, l)
	}
}

func TestDecodeTruncation(t *testing.T) {
	data := Encode(sampleLog())
	// Every proper prefix must be rejected, never panic, never succeed.
	for n := 0; n < len(data); n++ {
		if _, err := Decode(data[:n]); err == nil {
			t.Fatalf("truncation to %d/%d bytes accepted", n, len(data))
		}
	}
}

func TestDecodeBitFlips(t *testing.T) {
	data := Encode(sampleLog())
	for i := 0; i < len(data); i++ {
		for _, bit := range []byte{0x01, 0x80} {
			mut := append([]byte(nil), data...)
			mut[i] ^= bit
			l, err := Decode(mut)
			if err == nil && string(Encode(l)) != string(data) {
				// A flip in the CRC of a record that still checksums out is
				// impossible (CRC32 catches all single-bit errors), so any
				// accepted mutation is a codec hole.
				t.Fatalf("bit flip at byte %d (mask %#x) accepted with different content", i, bit)
			}
		}
	}
}

func TestDecodeErrorKinds(t *testing.T) {
	good := Encode(sampleLog())

	tests := []struct {
		name string
		data []byte
		want error
	}{
		{"empty", nil, ErrBadMagic},
		{"other file", []byte("tracevm/snapshot/v1\n junk"), ErrBadMagic},
		{"future version", mutateMagic(good, "tracevm/replay/v9\n"), ErrVersion},
		{"flipped payload byte", flip(good, len(magic)+2), ErrChecksum},
		{"plain truncation", good[:len(good)-6], ErrChecksum},
		{"truncated payload, valid CRC", refit(good[:len(good)-10]), ErrCorrupt},
	}
	for _, tc := range tests {
		if _, err := Decode(tc.data); !errors.Is(err, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, err, tc.want)
		}
	}
}

// mutateMagic swaps the version line and recomputes the trailer, so only the
// intended defect is under test.
func mutateMagic(data []byte, newMagic string) []byte {
	if len(newMagic) != len(magic) {
		panic("test magic must keep length")
	}
	out := append([]byte(newMagic), data[len(magic):len(data)-4]...)
	return binary.LittleEndian.AppendUint32(out, crc32.Checksum(out, crcTable))
}

// refit appends a freshly computed trailer to an (intentionally damaged)
// body, so the decoder gets past the checksum to the payload defect.
func refit(body []byte) []byte {
	out := append([]byte(nil), body...)
	return binary.LittleEndian.AppendUint32(out, crc32.Checksum(out, crcTable))
}

func flip(data []byte, i int) []byte {
	out := append([]byte(nil), data...)
	out[i] ^= 0x40
	return out
}

func TestRecordValidate(t *testing.T) {
	bad := []Record{
		{Kind: RefWorkload}, // no name
		{Kind: RefWorkload, Workload: "compress", Source: "x"}, // both refs
		{Kind: RefMiniJava},             // no source
		{Kind: 9, Workload: "compress"}, // unknown kind
		{Kind: RefWorkload, Workload: "w", Mode: core.ModeTraceDeploy + 1}, // unknown mode
		{Kind: RefWorkload, Workload: "w", Threshold: 1.5},                 // threshold
		{Kind: RefWorkload, Workload: "w", StartDelay: -1},                 // delay
		{Kind: RefWorkload, Workload: "w", MaxSteps: -5},                   // steps
		{Kind: RefWorkload, Workload: "w", Timeout: -time.Second},          // timeout
		{Kind: RefWorkload, Workload: "w", Delta: -time.Millisecond},       // delta
	}
	for i, r := range bad {
		if err := r.Validate(); err == nil {
			t.Errorf("bad record %d accepted: %+v", i, r)
		}
	}
	good := Record{Kind: RefWorkload, Workload: "compress", Mode: core.ModeTrace}
	if err := good.Validate(); err != nil {
		t.Errorf("good record rejected: %v", err)
	}
}

func TestLogHelpers(t *testing.T) {
	l := sampleLog()
	if got, want := l.Duration(), 3*time.Millisecond+time.Microsecond+15*time.Millisecond; got != want {
		t.Errorf("Duration = %v, want %v", got, want)
	}
	progs := l.Programs()
	if len(progs) != 4 {
		t.Fatalf("Programs = %v, want 4 distinct", progs)
	}
	if progs[0] != "compress" || progs[3] != "scimark" {
		t.Errorf("Programs order = %v", progs)
	}
}

func TestRecorderDeltas(t *testing.T) {
	r := NewRecorder()
	now := time.Unix(1000, 0)
	r.SetClock(func() time.Time { return now })

	rec := Record{Kind: RefWorkload, Workload: "compress", Mode: core.ModeTrace}
	if err := r.Record(rec); err != nil {
		t.Fatalf("Record: %v", err)
	}
	now = now.Add(7 * time.Millisecond)
	if err := r.Record(rec); err != nil {
		t.Fatalf("Record: %v", err)
	}
	now = now.Add(-time.Hour) // wall clock stepped back
	if err := r.Record(rec); err != nil {
		t.Fatalf("Record: %v", err)
	}
	if err := r.Record(Record{Kind: RefWorkload}); err == nil {
		t.Fatal("malformed record accepted")
	}

	l := r.Log()
	if r.Len() != 3 || len(l.Records) != 3 {
		t.Fatalf("Len = %d, log %d, want 3", r.Len(), len(l.Records))
	}
	if l.Records[0].Delta != 0 || l.Records[1].Delta != 7*time.Millisecond || l.Records[2].Delta != 0 {
		t.Fatalf("deltas = %v %v %v", l.Records[0].Delta, l.Records[1].Delta, l.Records[2].Delta)
	}

	var nilRec *Recorder
	if err := nilRec.Record(rec); err != nil {
		t.Fatalf("nil recorder: %v", err)
	}
	if nilRec.Len() != 0 || len(nilRec.Log().Records) != 0 {
		t.Fatal("nil recorder not empty")
	}
}

func TestRecorderSaveEmpty(t *testing.T) {
	r := NewRecorder()
	if err := r.Save(filepath.Join(t.TempDir(), "x"+FileExt)); err == nil {
		t.Fatal("empty recorder saved")
	}
}

func TestFixturePinned(t *testing.T) {
	path := filepath.Join("testdata", "storm-mixed"+FileExt)
	want := Encode(FixtureStormLog())
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, want, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read fixture (run with -update to regenerate): %v", err)
	}
	if string(got) != string(want) {
		t.Fatalf("committed fixture diverged from FixtureStormLog; regenerate with -update")
	}
	l, err := Decode(got)
	if err != nil {
		t.Fatalf("fixture does not decode: %v", err)
	}
	if len(l.Records) < 40 {
		t.Fatalf("fixture has %d records, want a real storm", len(l.Records))
	}
	if progs := l.Programs(); len(progs) < 5 {
		t.Fatalf("fixture covers %d tenants (%v), want mixed-tenant", len(progs), progs)
	}
}
