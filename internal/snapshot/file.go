package snapshot

import (
	"os"

	"repro/internal/frame"
)

// Save encodes s and commits it to path atomically.
func Save(path string, s *Snapshot) error { return frame.WriteAtomic(path, Encode(s)) }

// Load reads and decodes the snapshot file at path. The error distinguishes
// I/O failures (os errors, including fs.ErrNotExist) from format rejections
// (the typed codec errors).
func Load(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Decode(data)
}
