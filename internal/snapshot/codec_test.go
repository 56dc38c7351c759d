package snapshot

import (
	"bytes"
	"errors"
	"flag"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cfg"
	"repro/internal/profile"
)

var update = flag.Bool("update", false, "regenerate testdata fixtures")

// sample builds a representative snapshot: classified and unclassified
// nodes, hint-style sentinel delays, multi-edge correlations, traces with
// and without entry edges, loop headers.
func sample() *Snapshot {
	return &Snapshot{
		ProgramKey: "0123456789abcdef",
		Program:    "compress",
		Params:     profile.Params{Threshold: 0.97, StartDelay: 64, DecayInterval: 256},
		Nodes: []profile.NodeSnapshot{
			{X: 1, Y: 2, State: profile.StateUnique, StartDelay: 0, Best: 3,
				Edges: []profile.EdgeSnapshot{{Z: 3, Count: 200}}},
			{X: 2, Y: 3, State: profile.StateStrong, StartDelay: -1, Best: 4,
				Edges: []profile.EdgeSnapshot{{Z: 4, Count: 150}, {Z: 7, Count: 3}}},
			{X: 3, Y: 4, State: profile.StateNew, StartDelay: 17, Best: cfg.NoBlock},
		},
		Traces: []TraceState{
			{Blocks: []cfg.BlockID{2, 3, 4}, ExpectedCompletion: 0.98, EntryFrom: []cfg.BlockID{1}},
			{Blocks: []cfg.BlockID{5, 6}, ExpectedCompletion: 1},
		},
		LoopHeaders: []cfg.BlockID{2, 5},
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	want := sample()
	got, err := Decode(Encode(want))
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, want)
	}

	// The empty learned state must survive too (a program snapshotted before
	// anything classified).
	empty := &Snapshot{ProgramKey: "k", Params: profile.DefaultParams()}
	got, err = Decode(Encode(empty))
	if err != nil {
		t.Fatalf("Decode(empty): %v", err)
	}
	if !reflect.DeepEqual(got, empty) {
		t.Errorf("empty round trip mismatch: %+v", got)
	}
}

func TestEncodeIsDeterministic(t *testing.T) {
	if !bytes.Equal(Encode(sample()), Encode(sample())) {
		t.Error("two encodings of the same snapshot differ")
	}
}

// TestGoldenPinned pins the v1 wire format byte for byte, the way
// replay's TestFixturePinned pins the traffic log: testdata/v1.tsnap is
// sample() as the first v1 codec wrote it, so any change to the framing or
// the payload grammar shows here. Regenerating it with -update is a format
// change and needs a new Schema version.
func TestGoldenPinned(t *testing.T) {
	path := filepath.Join("testdata", "v1.tsnap")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, Encode(sample()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	golden, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to regenerate): %v", err)
	}
	if got := Encode(sample()); !bytes.Equal(got, golden) {
		t.Fatalf("Encode(sample()) diverged from the committed v1 golden:\n got %x\nwant %x", got, golden)
	}
	got, err := Decode(golden)
	if err != nil {
		t.Fatalf("golden does not decode: %v", err)
	}
	if want := sample(); !reflect.DeepEqual(got, want) {
		t.Errorf("golden decodes to\n got %+v\nwant %+v", got, want)
	}
}

// TestDecodeTruncation: every proper prefix of a valid encoding is rejected
// with an error, never accepted and never a panic.
func TestDecodeTruncation(t *testing.T) {
	data := Encode(sample())
	for i := 0; i < len(data); i++ {
		if _, err := Decode(data[:i]); err == nil {
			t.Fatalf("truncation to %d of %d bytes accepted", i, len(data))
		}
	}
}

// TestDecodeBitFlips: any single corrupted byte fails the checksum (or an
// earlier structural check); no flip produces a silently different snapshot.
func TestDecodeBitFlips(t *testing.T) {
	data := Encode(sample())
	for i := range data {
		mut := append([]byte(nil), data...)
		mut[i] ^= 0x01
		if _, err := Decode(mut); err == nil {
			t.Fatalf("flip at byte %d accepted", i)
		}
	}
}

func TestDecodeBadMagic(t *testing.T) {
	for _, data := range [][]byte{
		nil,
		[]byte("not a snapshot at all"),
		[]byte("tracevm/snapsho"),
		[]byte("tracevm/snapshot/no-newline-here-at-all"),
	} {
		if _, err := Decode(data); !errors.Is(err, ErrBadMagic) {
			t.Errorf("Decode(%q) = %v, want ErrBadMagic", data, err)
		}
	}
}

func TestDecodeWrongVersion(t *testing.T) {
	data := Encode(sample())
	v2 := []byte(strings.Replace(string(data), "snapshot/v1\n", "snapshot/v2\n", 1))
	if _, err := Decode(v2); !errors.Is(err, ErrVersion) {
		t.Errorf("v2 snapshot: %v, want ErrVersion", err)
	}
}

func TestDecodeChecksumMismatch(t *testing.T) {
	data := Encode(sample())
	data[len(data)-1] ^= 0xFF // corrupt the trailer itself
	if _, err := Decode(data); !errors.Is(err, ErrChecksum) {
		t.Errorf("corrupted trailer: %v, want ErrChecksum", err)
	}
}

// reseal recomputes the CRC trailer after a deliberate payload mutation, so
// tests reach the structural validators behind the checksum gate.
func reseal(body []byte) []byte {
	sum := crc32.ChecksumIEEE(body)
	return append(body, byte(sum), byte(sum>>8), byte(sum>>16), byte(sum>>24))
}

func TestDecodeTrailingBytes(t *testing.T) {
	data := Encode(sample())
	body := append(data[:len(data)-4:len(data)-4], 0x00)
	if _, err := Decode(reseal(body)); !errors.Is(err, ErrCorrupt) {
		t.Errorf("trailing byte: %v, want ErrCorrupt", err)
	}
}

// TestDecodeRejectsInvariantViolations: a well-formed container whose payload
// violates graph invariants is refused — Encode writes whatever it is given,
// Decode is the gate.
func TestDecodeRejectsInvariantViolations(t *testing.T) {
	cases := map[string]func(s *Snapshot){
		"unsorted edges": func(s *Snapshot) {
			s.Nodes[1].Edges = []profile.EdgeSnapshot{{Z: 7, Count: 3}, {Z: 4, Count: 150}}
		},
		"duplicate edge": func(s *Snapshot) {
			s.Nodes[1].Edges = []profile.EdgeSnapshot{{Z: 4, Count: 150}, {Z: 4, Count: 3}}
		},
		"zero-count edge": func(s *Snapshot) {
			s.Nodes[0].Edges[0].Count = 0
		},
		"state out of range": func(s *Snapshot) {
			s.Nodes[0].State = profile.StateUnique + 1
		},
		"start delay below sentinel": func(s *Snapshot) {
			s.Nodes[0].StartDelay = -2
		},
		"empty trace": func(s *Snapshot) {
			s.Traces[0].Blocks = nil
		},
		"completion above one": func(s *Snapshot) {
			s.Traces[0].ExpectedCompletion = 1.5
		},
		"completion negative": func(s *Snapshot) {
			s.Traces[0].ExpectedCompletion = -0.25
		},
		"invalid params": func(s *Snapshot) {
			s.Params.Threshold = 0
		},
	}
	for name, mutate := range cases {
		s := sample()
		mutate(s)
		if _, err := Decode(Encode(s)); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: Decode = %v, want ErrCorrupt", name, err)
		}
	}
}

func TestVerifyKey(t *testing.T) {
	s := sample()
	if err := s.VerifyKey("0123456789abcdef"); err != nil {
		t.Errorf("matching key rejected: %v", err)
	}
	if err := s.VerifyKey("feedfacefeedface"); !errors.Is(err, ErrWrongProgram) {
		t.Errorf("mismatched key: %v, want ErrWrongProgram", err)
	}
}

func TestJournal(t *testing.T) {
	var j Journal
	j.Saved()
	j.Saved()
	j.Rejected()
	c := j.Counters()
	if c.SnapshotsSaved != 2 || c.SnapshotsRejected != 1 {
		t.Errorf("journal counters = saved %d rejected %d, want 2/1", c.SnapshotsSaved, c.SnapshotsRejected)
	}
}
