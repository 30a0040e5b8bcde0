package experiments

import (
	"fmt"

	"tracecache/internal/program"
	"tracecache/internal/sim"
	"tracecache/internal/stats"
	"tracecache/internal/trace"
)

// traceEntry is one per-benchmark recording slot, singleflight like
// runEntry: the first replaying request for a benchmark records the
// stream; done closes once hdr/recs/err are final, and they are immutable
// afterwards.
type traceEntry struct {
	done chan struct{}
	// hdr/recs are the decoded committed stream (recs nil when recording
	// failed). The stream is decoded exactly once per benchmark; every
	// replaying sweep point indexes the shared slice directly.
	hdr  trace.Header
	recs []trace.Rec
	err  error
}

// traceEntryFor returns the benchmark's recording slot, creating it if
// this request is the first: the second result is true for the creator,
// which must resolve the entry (and close done on every path).
func (r *Runner) traceEntryFor(bench string) (*traceEntry, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.traces == nil {
		r.traces = make(map[string]*traceEntry)
	}
	if e, ok := r.traces[bench]; ok {
		return e, false
	}
	e := &traceEntry{done: make(chan struct{})}
	r.traces[bench] = e
	return e, true
}

// replays reports whether a request replays the benchmark's committed
// stream: a detailed request under Replay without Check whose
// configuration differs from the baseline machine at the request's
// budgets only in front-end axes (DESIGN.md §9). The answer depends on the
// request alone, never on what another point recorded.
func (r *Runner) replays(mode runMode, cfg sim.Config) bool {
	if mode != modeDetailed || !r.Replay || r.Check {
		return false
	}
	ref := sim.DefaultConfig()
	ref.FastForwardInsts, ref.WarmupInsts, ref.MaxInsts = cfg.FastForwardInsts, cfg.WarmupInsts, cfg.MaxInsts
	return sim.FrontEndEquivalent(cfg, ref)
}

// stream returns the benchmark's committed stream, recording it with
// sim.RecordStream if this request is the benchmark's first replaying one.
// A recording failure (or panic) is shared by every request that waits
// on the slot.
func (r *Runner) stream(cfg sim.Config, prog *program.Program, bench string) *traceEntry {
	te, creator := r.traceEntryFor(bench)
	if !creator {
		<-te.done
		return te
	}
	defer func() {
		if p := recover(); p != nil {
			te.err = fmt.Errorf("panic: %v", p)
		}
		close(te.done)
	}()
	te.hdr, te.recs, te.err = sim.RecordStream(cfg, prog)
	return te
}

// replayTrace replays a decoded stream under cfg and returns the
// front-end statistics (stats.ProvReplay provenance, cycle-domain
// statistics zero; see DESIGN.md §9). Replay never mutates recs, so
// concurrent sweep points share one decoded slice.
func replayTrace(cfg sim.Config, prog *program.Program, h trace.Header, recs []trace.Rec) (*stats.Run, error) {
	rp, err := sim.NewReplayer(cfg, prog)
	if err != nil {
		return nil, err
	}
	return rp.ReplayRecords(h, recs)
}
