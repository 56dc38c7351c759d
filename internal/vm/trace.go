package vm

import (
	"fmt"

	"repro/internal/cfg"
	"repro/internal/trace"
)

// execTrace executes trace t, whose entry block is the block about to run,
// as a single dispatch. It returns the block to dispatch next after
// completion or side exit, plus the ID of the last block the trace actually
// executed (the "from" side of the next dispatch edge).
//
// What ordinary dispatch does at every block entry — probe, interrupt poll,
// step budget — is decided once at trace entry: if none of it can fire
// inside this trace the segments run unchecked, otherwise each is entered
// through checkBlock as stepBlock would. Segment boundaries hold exact frame
// state, so a trap or a probe there sees what ordinary dispatch would; and
// each segment entry records its block in m.block, so a panic is reported
// at the block ordinary dispatch would name.
//
//tracevm:hotpath
func (m *Machine) execTrace(t *trace.Trace) (next *cfg.Block, last cfg.BlockID, halted bool, err error) {
	p, err := m.program(t)
	if err != nil {
		return nil, cfg.NoBlock, false, err
	}
	checked := m.probe != nil || m.interrupt.Load() || m.steps+p.TotalInstrs > m.maxSteps

	t.Entered++
	m.ctr.TracesEntered++
	m.ctr.TraceDispatches++ // the whole trace costs one dispatch
	instrsBefore := m.ctr.Instrs

	segs := p.Segs
	blocksRun := 0
	completed := false
	last = cfg.NoBlock
	for i := range segs {
		seg := &segs[i]
		b := seg.Block
		m.block = b
		f := m.top() // re-fetch: call/return segments switch frames
		m.ctr.Instrs += seg.NInstrs
		m.steps += seg.NInstrs
		if checked {
			if err := m.checkBlock(f, b); err != nil {
				return nil, last, false, err
			}
		}
		if err := m.execInstrs(f, b.Instrs[:len(b.Instrs)-1]); err != nil {
			return nil, last, false, err
		}
		nxt, h, err := m.execTerminator(f, b)
		if err != nil {
			return nil, last, false, err
		}
		m.ctr.BlockDispatches++
		blocksRun++
		last = b.ID
		if h {
			// The program ended inside the trace. Account the blocks run so
			// far; reaching the final block counts as completion.
			completed = i == len(segs)-1
			m.accountTrace(t, blocksRun, m.ctr.Instrs-instrsBefore, completed)
			return nil, last, true, nil
		}
		if m.hookInsideTraces && m.hook != nil {
			m.ctr.ProfiledDispatches++
			m.hook.OnDispatch(b.ID, nxt.ID)
		}
		if i == len(segs)-1 {
			completed = true
			next = nxt
			break
		}
		if nxt != segs[i+1].Block {
			// Side exit: the actual successor diverged from the recorded
			// path; fall back to ordinary dispatch at the actual successor.
			t.SideExits[i]++
			next = nxt
			break
		}
	}
	if !m.hookInsideTraces && m.hook != nil && next != nil {
		// Deployment mode: a trace dispatch executes a single profiling
		// statement — the exit edge keeps the branch context current.
		m.ctr.ProfiledDispatches++
		m.hook.OnDispatch(last, next.ID)
	}
	m.accountTrace(t, blocksRun, m.ctr.Instrs-instrsBefore, completed)
	return next, last, false, nil
}

// program returns t's executable form, built on first use.
//
//tracevm:hotpath
func (m *Machine) program(t *trace.Trace) (*trace.Program, error) {
	if t.Program == nil {
		blocks := make([]*cfg.Block, len(t.Blocks)) //tracevm:allow-alloc (cold: first execution of a freshly generated trace)
		for i, id := range t.Blocks {
			if blocks[i] = m.cfg.Block(id); blocks[i] == nil {
				//tracevm:allow-alloc (cold: trap construction on a corrupt trace)
				return nil, &Trap{Kind: TrapBadProgram, Detail: fmt.Sprintf("trace %d references unknown block %d", t.ID, id)}
			}
		}
		t.Program = trace.Lower(blocks)
	}
	return t.Program, nil
}

func (m *Machine) accountTrace(t *trace.Trace, blocksRun int, instrs int64, completed bool) {
	m.ctr.BlocksInTraces += int64(blocksRun)
	m.ctr.InstrsInTraces += instrs
	if completed {
		t.Completed++
		m.ctr.TracesCompleted++
		m.ctr.CompletedTraceBlocksSum += int64(blocksRun)
		m.ctr.InstrsInCompletedTraces += instrs
	}
}
