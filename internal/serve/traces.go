package serve

import (
	"sort"

	"repro/internal/trace"
)

// TraceRecord is one live trace in a program's inventory, aggregated across
// the program's worker shards by canonical block-sequence key (the same
// sequence learned independently by two shards is one logical trace).
type TraceRecord struct {
	// Key is the canonical block-sequence key; Entry is the entry block ID
	// and Blocks the trace length in blocks.
	Key    string
	Entry  int
	Blocks int
	// Shards counts the shards currently holding the sequence.
	Shards int
	// Dispatch accounting, summed over shards.
	Entered   int64
	Completed int64
	// Guard split: ProvenGuards were proven dead by static value flow;
	// EstimatedGuards rest on the profiler's correlation estimate alone.
	ProvenGuards    int
	EstimatedGuards int
}

// ProgramTraces is one program's live trace inventory.
type ProgramTraces struct {
	Program string
	Traces  []TraceRecord
}

// TraceInventory reports every live trace of every program, aggregated per
// program across its worker shards (GET /v1/traces). Shards locked by an
// in-flight run are skipped, exactly like an epoch merge: the inventory is a
// best-effort observability read, never a stall.
func (s *Service) TraceInventory() []ProgramTraces {
	type program struct {
		name   string
		shards []*workerShard // of every set the program has
	}
	ec := s.epochs
	ec.mu.Lock()
	programs := make([]program, 0, len(ec.sets))
	for _, sets := range ec.sets {
		p := program{name: sets[0].name}
		for _, set := range sets {
			p.shards = append(p.shards, set.shards...)
		}
		programs = append(programs, p)
	}
	ec.mu.Unlock()
	sort.Slice(programs, func(i, j int) bool { return programs[i].name < programs[j].name })

	out := make([]ProgramTraces, 0, len(programs))
	for _, p := range programs {
		byKey := make(map[string]*TraceRecord)
		for _, sh := range p.shards {
			if !sh.mu.TryLock() {
				continue
			}
			if sh.prof != nil {
				for _, t := range sh.prof.Cache.Traces() {
					key := trace.Key(t.Blocks)
					r := byKey[key]
					if r == nil {
						r = &TraceRecord{
							Key:             key,
							Entry:           int(t.Entry()),
							Blocks:          t.Len(),
							ProvenGuards:    t.ProvenGuards(),
							EstimatedGuards: t.Len() - 1 - t.ProvenGuards(),
						}
						byKey[key] = r
					}
					r.Shards++
					r.Entered += t.Entered
					r.Completed += t.Completed
				}
			}
			sh.mu.Unlock()
		}
		if len(byKey) == 0 {
			continue
		}
		recs := make([]TraceRecord, 0, len(byKey))
		for _, r := range byKey {
			recs = append(recs, *r)
		}
		sort.Slice(recs, func(i, j int) bool {
			if recs[i].Entered != recs[j].Entered {
				return recs[i].Entered > recs[j].Entered
			}
			return recs[i].Key < recs[j].Key
		})
		out = append(out, ProgramTraces{Program: p.name, Traces: recs})
	}
	return out
}
