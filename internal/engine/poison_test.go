package engine

import (
	"fmt"
	"math/rand"
	"testing"

	"tracecache/internal/poison"
)

// TestPoisonedSlotsCarryNothing: Dispatch fills a reused window slot by
// assigning every field, so an engine whose every slot holds garbage runs
// a dispatch/tick/squash/retire script exactly as a clean engine does:
// the same instructions complete on the same cycles, with the same
// statistics, under both memory schedulers.
func TestPoisonedSlotsCarryNothing(t *testing.T) {
	for _, oracle := range []bool{false, true} {
		t.Run(fmt.Sprintf("oracle=%v", oracle), func(t *testing.T) {
			clean, dirty := smallEngine(oracle), smallEngine(oracle)
			for i := range dirty.insts {
				poison.Fill(&dirty.insts[i])
			}
			want, got := trafficScript(t, clean), trafficScript(t, dirty)
			for c := range want {
				if fmt.Sprint(got[c]) != fmt.Sprint(want[c]) {
					t.Fatalf("cycle %d: poisoned engine completed %v, clean engine %v", c, got[c], want[c])
				}
			}
			if dirty.Stats() != clean.Stats() {
				t.Fatalf("poisoned engine stats %+v, clean engine %+v", dirty.Stats(), clean.Stats())
			}
			st := clean.Stats()
			if st.Squashed == 0 || st.Forwards == 0 || (!oracle && st.LoadsBlocked == 0) {
				t.Fatalf("script missed a path: %+v", st)
			}
		})
	}
}

// smallEngine is a 32-entry window, so a script reuses every slot often.
func smallEngine(oracle bool) *Engine {
	cfg := DefaultConfig()
	cfg.FUs, cfg.RSPerFU, cfg.MemOracle = 4, 8, oracle
	return New(cfg, testHier())
}

// trafficScript drives e with a seeded mix of dependent ALU operations,
// loads and stores to eight addresses, squashes of a young suffix and
// in-order retirement, and returns each cycle's completions. It fails if
// a newly dispatched instruction already has dependents.
func trafficScript(t *testing.T, e *Engine) [][]uint64 {
	rnd := rand.New(rand.NewSource(11))
	var done [][]uint64
	var retireSeq uint64
	for cycle := uint64(1); cycle <= 3000; cycle++ {
		done = append(done, append([]uint64(nil), e.Tick(cycle)...))
		for e.InFlight() > 0 && e.IsDone(retireSeq) {
			e.Retire(retireSeq)
			retireSeq++
		}
		for n := rnd.Intn(4); n > 0 && e.SpaceFor(1); n-- {
			var srcs []uint64
			next := e.NextSeq()
			for i := rnd.Intn(3); i > 0; i-- {
				if back := uint64(rnd.Intn(6) + 1); back <= next {
					srcs = append(srcs, next-back)
				}
			}
			r := rnd.Intn(10)
			seq := e.Dispatch(srcs, r < 3, r == 3 || r == 4, uint64(rnd.Intn(8))*8, 1+rnd.Intn(3))
			if n := len(e.slot(seq).deps); n != 0 {
				t.Fatalf("seq %d dispatched with %d dependents", seq, n)
			}
		}
		if rnd.Intn(8) == 0 && e.NextSeq() > retireSeq+1 {
			e.Squash(retireSeq + 1 + uint64(rnd.Intn(int(e.NextSeq()-retireSeq-1))))
		}
	}
	return done
}
