package snapshot

import (
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/frame"
)

// CorruptExt is the sidecar suffix quarantined files are renamed to: a
// corrupt `k.tsnap` becomes `k.tsnap.corrupt`, out of every loader's sight
// but preserved for forensics.
const CorruptExt = ".corrupt"

// ScrubFinding is one file a scrub rejected.
type ScrubFinding struct {
	// Path is the file as found; Err says why its contents don't decode.
	Path string
	Err  error
	// Quarantined is the sidecar path the file was moved to ("" when the
	// scrub ran in report-only mode or the rename itself failed).
	Quarantined string
}

// ScrubReport summarizes a snapshot-directory scrub.
type ScrubReport struct {
	// Scanned counts the .tsnap files examined, Valid the ones that decode.
	Scanned int
	Valid   int
	// Corrupt lists the rejects in deterministic (sorted-path) order.
	Corrupt []ScrubFinding
	// TempsRemoved counts abandoned write-temp files (frame.TempPrefix) swept away
	// — the residue of a writer that died between CreateTemp and rename.
	TempsRemoved int
}

// ScrubDir decode-validates every .tsnap file in dir, the self-healing pass
// a daemon runs before trusting a snapshot directory it may have crashed
// over. With quarantine set, each corrupt file is renamed to a .corrupt
// sidecar so later loads cannot see it; otherwise the scrub only reports.
// Abandoned write-temp files are always removed. A missing directory is an
// empty report, not an error; the returned error is reserved for the
// directory listing itself failing.
func ScrubDir(dir string, quarantine bool) (*ScrubReport, error) {
	rep := &ScrubReport{}
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return rep, nil
		}
		return nil, err
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		names = append(names, e.Name())
	}
	sort.Strings(names)

	for _, name := range names {
		path := filepath.Join(dir, name)
		if strings.HasPrefix(name, frame.TempPrefix) {
			if os.Remove(path) == nil {
				rep.TempsRemoved++
			}
			continue
		}
		if !strings.HasSuffix(name, ".tsnap") {
			continue
		}
		rep.Scanned++
		if _, err := Load(path); err == nil {
			rep.Valid++
			continue
		} else {
			f := ScrubFinding{Path: path, Err: err}
			if quarantine {
				side := path + CorruptExt
				if os.Rename(path, side) == nil {
					f.Quarantined = side
				}
			}
			rep.Corrupt = append(rep.Corrupt, f)
		}
	}
	return rep, nil
}
