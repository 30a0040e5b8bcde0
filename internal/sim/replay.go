package sim

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"tracecache/internal/fetch"
	"tracecache/internal/program"
	"tracecache/internal/stats"
	"tracecache/internal/trace"
)

// Replayer drives only the front end — trace cache, fill unit,
// bias/promotion table, branch and indirect predictors, L1I — from a
// recorded retired stream. There is no execution core, scheduler,
// register state or wrong-path execution: each fetch bundle is resolved
// instantly against the recorded committed path, so the machine advances
// at fetch speed rather than simulation speed.
//
// The front-end statistics it produces (effective fetch rate, trace
// cache hit rate, promotion/demotion/fault counts, predictor accuracy)
// tie out against a detailed run of the same configuration within the
// bounds documented in DESIGN.md §9 and enforced by check.CompareReplay:
// the divergences are the absence of wrong-path pollution (fetches the
// detailed machine issues past mispredicted branches touch the L1I,
// trace cache LRU state and predictors; replay never sees them),
// immediate instead of retire-lagged predictor updates, and
// fetch-granular instead of cycle-granular warmup/budget boundaries.
// Cycle-domain statistics (Cycles, IPC, cycle classification, wrong-path
// fetch counts, resolution latencies) are undefined and left zero.
type Replayer struct {
	frontEnd
	cfg      Config
	prog     *program.Program
	progHash uint64
	run      stats.Run
	fiBuf    []*fetch.FetchedInst
	recs     []trace.Rec // the stream being replayed
	idx      int         // cursor into recs
}

// NewReplayer builds a front-end-only replay engine for the program
// under the configuration. The core-side parameters of cfg are ignored
// (no core runs); its front-end axes and budgets govern the replay.
func NewReplayer(cfg Config, prog *program.Program) (*Replayer, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	f, err := newFrontEnd(cfg, prog)
	if err != nil {
		return nil, err
	}
	r := &Replayer{frontEnd: f, cfg: cfg, prog: prog, progHash: prog.Hash()}
	r.run.Config = cfg.Name
	r.run.Benchmark = prog.Name
	return r, nil
}

// Stats returns the statistics collected so far.
func (r *Replayer) Stats() *stats.Run { return &r.run }

// ReplayRecords consumes a fully decoded recorded stream (h must be its
// header) and returns front-end statistics. The configuration's
// FastForwardInsts+WarmupInsts prefix warms the front end with
// statistics discarded; MaxInsts are then measured, or fewer if the
// stream ends first. The loop checks both boundaries before each fetch,
// so each can overshoot by less than one fetch bundle, and a stream
// that stops at the combined budget can run out before MaxInsts are
// measured: a detailed recording made at the same budgets (perfbench,
// the golden replay fixture) can end up to ~30 records before the loop's
// last fetch, and such a replay measures a few instructions under
// MaxInsts, within check.CompareReplay's near-exact slack of 64.
// RecordStream records a tail of two fetch bundles past the budget so
// its replays measure the full MaxInsts. A Replayer is single-use:
// replaying resumes warm state, so build a fresh one per stream.
// Decoding once and replaying the records many times is the fast path
// for sweeps (experiments.Runner does this internally).
func (r *Replayer) ReplayRecords(h trace.Header, recs []trace.Rec) (*stats.Run, error) {
	//tcvet:ignore determinism wall-clock provenance only: run start time for stats.Meta, never simulated state
	start := time.Now()
	if err := h.Matches(r.traceWant()); err != nil {
		return nil, fmt.Errorf("sim: replay %q/%q: %w", r.cfg.Name, r.prog.Name, err)
	}
	r.recs, r.idx = recs, 0
	warmTotal := r.cfg.FastForwardInsts + r.cfg.WarmupInsts
	warming := warmTotal > 0
	var (
		total uint64 // committed instructions consumed, including warmup
		halt  bool
	)
	pc := r.prog.Entry
	for r.idx < len(r.recs) && !halt {
		if warming && total >= warmTotal {
			warming = false
			r.run = stats.Run{Benchmark: r.run.Benchmark, Config: r.run.Config}
		}
		if !warming && r.run.Retired >= r.cfg.MaxInsts {
			break
		}
		b := r.fe.Fetch(pc)
		consumed := 0
		mispredBR := false
		redirected := false
		for i := 0; i < len(b.Insts); i++ {
			fi := &b.Insts[i]
			if fi.Inactive {
				break
			}
			cur := &r.recs[r.idx]
			if fi.PC != cur.PC {
				return nil, r.divergeErr(fi.PC, cur.PC, total)
			}
			target, redir := r.commitInst(fi, cur, b.TCMiss && consumed == 0)
			consumed++
			total++
			halt = cur.Kind == trace.KindHalt
			r.idx++
			more := r.idx < len(r.recs)
			if !redir && fi.Inst.IsReturn() && more && fi.PredTarget != r.recs[r.idx].PC {
				// Return misfetch (the RAS is ideal on the committed path,
				// so this mirrors a recovery that should never trigger):
				// redirect to the committed continuation.
				r.fe.ResolveEffect(fi, false)
				redirected = true
				pc = r.recs[r.idx].PC
				break
			}
			if redir {
				redirected = true
				pc = target
				if fi.Inst.IsCondBranch() {
					mispredBR = true
					// Inactive issue: a diverging branch that carried a
					// real prediction re-issues its inactive suffix as the
					// correct path (mirrors Simulator.recoverBranch).
					if fi.UsedSlot && i+1 < len(b.Insts) && b.Insts[i+1].Inactive {
						n, resume, injHalt, err := r.inject(b.Insts[i+1:])
						if err != nil {
							return nil, err
						}
						consumed += n
						total += uint64(n)
						halt = halt || injHalt
						pc = resume
					}
				}
				break
			}
			if !more || halt {
				break
			}
		}
		if !redirected {
			pc = b.NextPC
		}
		if consumed > 0 {
			addFetch(&r.run, consumed, b.Reason, mispredBR, b.PredsUsed)
		}
	}
	//tcvet:ignore determinism wall-clock provenance only: feeds stats.Meta wall time, never simulated state
	r.run.Meta = r.buildMeta(start, time.Since(start))
	run := r.run
	return &run, nil
}

// traceWant is the stream content this replay requires.
func (r *Replayer) traceWant() trace.Header {
	return trace.Header{
		ProgHash:         r.progHash,
		CodeLen:          len(r.prog.Code),
		Entry:            r.prog.Entry,
		FastForwardInsts: r.cfg.FastForwardInsts,
		WarmupInsts:      r.cfg.WarmupInsts,
		MeasureInsts:     r.cfg.MaxInsts,
	}
}

// divergeErr reports a committed-path mismatch: the front end delivered
// an active instruction the recording disagrees with, which can only
// mean a corrupted stream that still decodes or a replay-engine bug.
func (r *Replayer) divergeErr(fetched, recorded int, total uint64) error {
	return fmt.Errorf("sim: replay %q/%q diverged after %d instructions: fetched pc %d, stream has %d",
		r.cfg.Name, r.prog.Name, total, fetched, recorded)
}

// commitInst retires one fetched instruction against its record through
// the detailed machine's retire-time front-end update (frontEnd.
// retireUpdate), after the demotion check a faulting promoted branch
// makes at resolve time there; a mispredicted branch or misfetched
// indirect then restores the fetch state and redirects (redir true,
// target the committed next PC), as Simulator.recoverBranch does.
//
//tc:hotpath
func (r *Replayer) commitInst(fi *fetch.FetchedInst, rec *trace.Rec, alignFill bool) (target int, redir bool) {
	in := fi.Inst
	actual := rec.Taken
	mispred := false
	switch {
	case in.IsCondBranch():
		mispred = fi.Predicted != actual
	case in.IsIndirect():
		mispred = fi.PredTarget != rec.Target
	}
	if mispred && fi.Promoted {
		r.demote(fi.PC, fi.Predicted)
	}
	r.retireUpdate(&r.run, fi, alignFill, actual, mispred, rec.Target, rec.MemAddr, rec.HasMem)
	if !mispred {
		return 0, false
	}
	r.fe.ResolveEffect(fi, actual)
	if in.IsCondBranch() {
		if actual {
			return in.Target, true
		}
		return fi.PC + 1, true
	}
	return rec.Target, true
}

// inject replays the inactive suffix of a diverging branch whose
// embedded path turned out correct: the suffix's fetch-state effects are
// re-applied and its instructions commit against the stream, counting
// toward the same fetch record. A nested mispredict (a suffix branch
// whose embedded outcome is wrong, or a faulting promoted branch) ends
// the injection with a further redirect, exactly like the detailed
// machine. Returns the instructions committed, the resume PC, and
// whether a halt committed.
func (r *Replayer) inject(suffix []fetch.FetchedInst) (int, int, bool, error) {
	r.fiBuf = r.fiBuf[:0]
	for i := range suffix {
		r.fiBuf = append(r.fiBuf, &suffix[i])
	}
	resume := r.fe.ApplyEffects(r.fiBuf)
	n := 0
	for i := range suffix {
		if r.idx >= len(r.recs) {
			return n, resume, false, nil
		}
		fi := &suffix[i]
		cur := &r.recs[r.idx]
		if fi.PC != cur.PC {
			return n, resume, false, r.divergeErr(fi.PC, cur.PC, r.run.Retired)
		}
		target, redir := r.commitInst(fi, cur, false)
		n++
		halt := cur.Kind == trace.KindHalt
		r.idx++
		if redir {
			return n, target, false, nil
		}
		if halt {
			return n, resume, true, nil
		}
		if fi.Inst.IsReturn() && r.idx < len(r.recs) && fi.PredTarget != r.recs[r.idx].PC {
			r.fe.ResolveEffect(fi, false)
			return n, r.recs[r.idx].PC, false, nil
		}
	}
	return n, resume, false, nil
}

// buildMeta records the replayed run's provenance.
func (r *Replayer) buildMeta(start time.Time, wall time.Duration) *stats.Meta {
	host, _ := os.Hostname()
	return &stats.Meta{
		ConfigHash:       r.cfg.Hash(),
		WarmupInsts:      r.cfg.WarmupInsts,
		MaxInsts:         r.cfg.MaxInsts,
		FastForwardInsts: r.cfg.FastForwardInsts,
		Provenance:       stats.ProvReplay,
		WallMillis:       float64(wall.Microseconds()) / 1000,
		GoVersion:        runtime.Version(),
		Hostname:         host,
		StartedAt:        start.UTC().Format(time.RFC3339),
	}
}
