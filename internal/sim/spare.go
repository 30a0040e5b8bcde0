package sim

import (
	"tracecache/internal/bpred"
	"tracecache/internal/cache"
	"tracecache/internal/core"
	"tracecache/internal/engine"
	"tracecache/internal/exec"
	"tracecache/internal/fetch"
)

// Spare holds a finished simulator's large tables for the next simulator
// its owner builds (Spare.New): the instruction window, the fetch-record
// ring, the inactive-suffix free list, the engine, the caches, the
// predictors, the trace cache, the fill unit with its buffers and
// promotion bias table, and the architectural state with its memory
// pages. The paper's machine has fixed storage, and a worker that
// simulates one point after another keeps it fixed too: a table the next
// configuration shares the geometry of is cleared to exactly what a fresh
// allocation holds, so a simulator built from a spare runs byte for byte
// as one New builds. The zero Spare is empty. A Spare is not safe for
// concurrent use; each Runner worker owns one.
type Spare struct {
	window     []dyn
	records    []fetchRec
	suffixFree [][]fetch.FetchedInst
	eng        *engine.Engine
	caches     [3]*cache.Cache // L1I, L1D, L2
	ind        *bpred.IndirectPredictor
	tree       *bpred.TreeMBP
	split      *bpred.SplitMBP
	hyb        *bpred.Hybrid
	tc         *core.TraceCache
	fill       *core.FillUnit
	state      *exec.State
}

// Keep makes the finished simulator's tables the spare for the next New.
// s must not be used again.
func (sp *Spare) Keep(s *Simulator) {
	*sp = Spare{
		window:     s.window,
		records:    s.records,
		suffixFree: s.suffixFree,
		eng:        s.eng,
		caches:     [3]*cache.Cache{s.hier.L1I, s.hier.L1D, s.hier.L2},
		ind:        s.ind,
		hyb:        s.hyb,
		tc:         s.tc,
		fill:       s.fill,
		state:      s.state,
	}
	// The suffix buffers of branches still in flight join the free list:
	// renewing the window clears their slots.
	for i := range s.window {
		if buf := s.window[i].inactiveSuffix; buf != nil {
			sp.suffixFree = append(sp.suffixFree, buf[:0])
		}
	}
	switch m := s.mbp.(type) {
	case *bpred.TreeMBP:
		sp.tree = m
	case *bpred.SplitMBP:
		sp.split = m
	case *bpred.SingleHybridMBP:
		sp.hyb = m.Hybrid()
	}
}

// renewed returns tb cleared when it holds n elements, and a new slice of
// n otherwise.
func renewed[T any](tb []T, n int) []T {
	if len(tb) != n {
		return make([]T, n)
	}
	clear(tb)
	return tb
}
