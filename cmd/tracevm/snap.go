package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"repro/internal/cfg"
	"repro/internal/profile"
	"repro/internal/snapshot"
)

// snapCmd inspects and compares profile snapshot files
// (tracevm/snapshot/v1, written by VM.SaveSnapshot, the serving daemon's
// snapshot store, or GET /v1/snapshot).
//
//	tracevm snap prog.tsnap                summary: identity, params, state histogram
//	tracevm snap -nodes prog.tsnap         per-node listing (context, state, edges)
//	tracevm snap -json prog.tsnap          full decoded snapshot as JSON
//	tracevm snap -diff old.tsnap new.tsnap what the profile learned between two saves
//	tracevm snap -scrub dir                validate every .tsnap in a store directory;
//	                                       fails when corruption is found
//	tracevm snap -scrub -quarantine dir    additionally move corrupt files to .corrupt
//	                                       sidecars (the daemon's startup self-heal,
//	                                       runnable offline)
func snapCmd(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("snap", flag.ExitOnError)
	nodes := fs.Bool("nodes", false, "list every node with its state and edges")
	asJSON := fs.Bool("json", false, "dump the decoded snapshot as JSON")
	diff := fs.Bool("diff", false, "compare two snapshots (old new)")
	scrub := fs.Bool("scrub", false, "validate every snapshot in a store directory")
	quarantine := fs.Bool("quarantine", false, "scrub: move corrupt snapshots to .corrupt sidecars")
	fs.Parse(args)
	args = fs.Args()

	if *scrub {
		if len(args) != 1 {
			return fmt.Errorf("-scrub expects one store directory")
		}
		return runScrub(w, args[0], *quarantine)
	}
	if *diff {
		if len(args) != 2 {
			return fmt.Errorf("-diff expects two snapshot files")
		}
		a, err := snapshot.Load(args[0])
		if err != nil {
			return fmt.Errorf("%s: %w", args[0], err)
		}
		b, err := snapshot.Load(args[1])
		if err != nil {
			return fmt.Errorf("%s: %w", args[1], err)
		}
		printDiff(w, args[0], args[1], a, b)
		return nil
	}
	if len(args) != 1 {
		return fmt.Errorf("expected one snapshot file (or -diff old new)")
	}
	s, err := snapshot.Load(args[0])
	if err != nil {
		return fmt.Errorf("%s: %w", args[0], err)
	}
	switch {
	case *asJSON:
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(s)
	case *nodes:
		printNodes(w, s)
	default:
		info, err := os.Stat(args[0])
		if err != nil {
			return err
		}
		printSummary(w, args[0], info.Size(), s)
	}
	return nil
}

// runScrub validates a snapshot store offline — the same pass the daemon
// runs at startup. Without -quarantine it only reports; corruption makes it
// exit non-zero either way, so a cron or CI check fails loudly. With
// -quarantine the damaged files are moved aside exactly as the daemon would,
// and the scrub exits zero: the store is healthy again.
func runScrub(w io.Writer, dir string, quarantine bool) error {
	rep, err := snapshot.ScrubDir(dir, quarantine)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "scanned:     %d snapshot(s)\n", rep.Scanned)
	fmt.Fprintf(w, "valid:       %d\n", rep.Valid)
	fmt.Fprintf(w, "corrupt:     %d\n", len(rep.Corrupt))
	if rep.TempsRemoved > 0 {
		fmt.Fprintf(w, "temps swept: %d abandoned write(s)\n", rep.TempsRemoved)
	}
	for _, f := range rep.Corrupt {
		if f.Quarantined != "" {
			fmt.Fprintf(w, "  quarantined %s -> %s (%v)\n", f.Path, f.Quarantined, f.Err)
		} else {
			fmt.Fprintf(w, "  corrupt     %s (%v)\n", f.Path, f.Err)
		}
	}
	if n := len(rep.Corrupt); n > 0 && !quarantine {
		return fmt.Errorf("%d corrupt snapshot(s) in %s (rerun with -quarantine to move them aside)", n, dir)
	}
	return nil
}

func printSummary(w io.Writer, path string, size int64, s *snapshot.Snapshot) {
	fmt.Fprintf(w, "file:      %s (%d bytes)\n", path, size)
	fmt.Fprintf(w, "schema:    %s\n", snapshot.Schema)
	name := s.Program
	if name == "" {
		name = "(unnamed)"
	}
	fmt.Fprintf(w, "program:   %s  key %s\n", name, s.ProgramKey)
	fmt.Fprintf(w, "params:    threshold %.3f  delay %d  decay %d\n",
		s.Params.Threshold, s.Params.StartDelay, s.Params.DecayInterval)

	var hist [int(profile.StateUnique) + 1]int
	edges := 0
	for _, n := range s.Nodes {
		hist[n.State]++
		edges += len(n.Edges)
	}
	fmt.Fprintf(w, "nodes:     %d  (", len(s.Nodes))
	for st := profile.StateNew; st <= profile.StateUnique; st++ {
		if st > profile.StateNew {
			fmt.Fprint(w, "  ")
		}
		fmt.Fprintf(w, "%s %d", st, hist[st])
	}
	fmt.Fprintf(w, ")\n")
	fmt.Fprintf(w, "edges:     %d\n", edges)

	blocks, entries := 0, 0
	minEC, sumEC := 1.0, 0.0
	for _, t := range s.Traces {
		blocks += len(t.Blocks)
		entries += len(t.EntryFrom)
		sumEC += t.ExpectedCompletion
		if t.ExpectedCompletion < minEC {
			minEC = t.ExpectedCompletion
		}
	}
	if len(s.Traces) > 0 {
		fmt.Fprintf(w, "traces:    %d  (%d blocks, %d entry edges, expected completion min %.3f avg %.3f)\n",
			len(s.Traces), blocks, entries, minEC, sumEC/float64(len(s.Traces)))
	} else {
		fmt.Fprintf(w, "traces:    0\n")
	}
	fmt.Fprintf(w, "loop hdrs: %d\n", len(s.LoopHeaders))
}

func printNodes(w io.Writer, s *snapshot.Snapshot) {
	for _, n := range s.Nodes {
		total := 0
		var parts []string
		for _, e := range n.Edges {
			total += int(e.Count)
			parts = append(parts, fmt.Sprintf("%d:%d", e.Z, e.Count))
		}
		best := "-"
		if n.Best != cfg.NoBlock {
			best = fmt.Sprintf("%d", n.Best)
		}
		fmt.Fprintf(w, "N_%d,%d  %-7s delay %-4d best %-4s total %-5d  [%s]\n",
			n.X, n.Y, n.State, n.StartDelay, best, total, strings.Join(parts, " "))
	}
}

// nodeKey identifies a node across snapshots by its branch context.
type nodeKey struct{ x, y cfg.BlockID }

// traceKey identifies a trace by its block sequence.
func traceKey(blocks []cfg.BlockID) string {
	var b strings.Builder
	for i, id := range blocks {
		if i > 0 {
			b.WriteByte('>')
		}
		fmt.Fprintf(&b, "%d", id)
	}
	return b.String()
}

func printDiff(w io.Writer, pathA, pathB string, a, b *snapshot.Snapshot) {
	fmt.Fprintf(w, "old: %s  (%d nodes, %d traces)\n", pathA, len(a.Nodes), len(a.Traces))
	fmt.Fprintf(w, "new: %s  (%d nodes, %d traces)\n", pathB, len(b.Nodes), len(b.Traces))
	if a.ProgramKey != b.ProgramKey {
		fmt.Fprintf(w, "!! different programs: %s vs %s\n", a.ProgramKey, b.ProgramKey)
	}
	if a.Params != b.Params {
		fmt.Fprintf(w, "!! different params: threshold %.3f/%.3f delay %d/%d decay %d/%d\n",
			a.Params.Threshold, b.Params.Threshold,
			a.Params.StartDelay, b.Params.StartDelay,
			a.Params.DecayInterval, b.Params.DecayInterval)
	}

	an := make(map[nodeKey]profile.NodeSnapshot, len(a.Nodes))
	for _, n := range a.Nodes {
		an[nodeKey{n.X, n.Y}] = n
	}
	var added, changed []string
	seen := make(map[nodeKey]bool, len(b.Nodes))
	for _, n := range b.Nodes {
		k := nodeKey{n.X, n.Y}
		seen[k] = true
		old, ok := an[k]
		switch {
		case !ok:
			added = append(added, fmt.Sprintf("  + N_%d,%d %s", n.X, n.Y, n.State))
		case old.State != n.State:
			changed = append(changed, fmt.Sprintf("  ~ N_%d,%d %s -> %s", n.X, n.Y, old.State, n.State))
		}
	}
	var removed []string
	for _, n := range a.Nodes {
		if !seen[nodeKey{n.X, n.Y}] {
			removed = append(removed, fmt.Sprintf("  - N_%d,%d %s", n.X, n.Y, n.State))
		}
	}
	printGroup(w, "nodes added", added)
	printGroup(w, "nodes removed", removed)
	printGroup(w, "node state changes", changed)

	at := make(map[string]float64, len(a.Traces))
	for _, t := range a.Traces {
		at[traceKey(t.Blocks)] = t.ExpectedCompletion
	}
	var tAdded, tRemoved []string
	seenT := make(map[string]bool, len(b.Traces))
	for _, t := range b.Traces {
		k := traceKey(t.Blocks)
		seenT[k] = true
		if _, ok := at[k]; !ok {
			tAdded = append(tAdded, fmt.Sprintf("  + [%s] ec %.3f", k, t.ExpectedCompletion))
		}
	}
	for _, t := range a.Traces {
		if k := traceKey(t.Blocks); !seenT[k] {
			tRemoved = append(tRemoved, fmt.Sprintf("  - [%s] ec %.3f", k, t.ExpectedCompletion))
		}
	}
	printGroup(w, "traces added", tAdded)
	printGroup(w, "traces removed", tRemoved)
}

func printGroup(w io.Writer, title string, lines []string) {
	if len(lines) == 0 {
		return
	}
	sort.Strings(lines)
	fmt.Fprintf(w, "%s (%d):\n", title, len(lines))
	for _, l := range lines {
		fmt.Fprintln(w, l)
	}
}
