package fetch

import (
	"reflect"
	"testing"

	"tracecache/internal/bpred"
	"tracecache/internal/core"
	"tracecache/internal/exec"
	"tracecache/internal/poison"
	"tracecache/internal/workload"
)

// TestPoisonedBundlesCarryNothing: both engines fill a reused bundle slot
// by assigning every field, so an engine whose whole bundle array holds
// garbage before every Fetch delivers, slot for slot, the bundles a clean
// engine delivers. The trace cache holds gcc's committed stream, filled
// with promotion and cost-regulated packing, and fetch follows that
// stream, taking the predicted next PC every third fetch.
func TestPoisonedBundlesCarryNothing(t *testing.T) {
	prog, err := workload.SharedProgram("gcc")
	if err != nil {
		t.Fatal(err)
	}
	var pcs []int
	exec.Trace(prog, 30_000, func(info *exec.StepInfo) bool {
		pcs = append(pcs, info.PC)
		return true
	})
	engines := map[string]func() (Engine, *Bundle){
		"trace": func() (Engine, *Bundle) {
			tc := mustTC(core.TraceCacheConfig{Entries: 2048, Assoc: 4})
			fill := core.NewFillUnit(core.DefaultFillConfig(core.PackCostRegulated, 8), tc)
			exec.Trace(prog, 30_000, func(info *exec.StepInfo) bool {
				fill.RetireInst(info.PC, info.Inst, info.Taken)
				return true
			})
			e := NewTraceEngine(TraceConfig{
				Prog: prog, TC: tc, MBP: bpred.NewTreeMBP(1 << 14),
				Indirect: bpred.NewIndirectPredictor(1 << 8), Hier: smallHier(),
			})
			return e, &e.bundle
		},
		"icache": func() (Engine, *Bundle) {
			e := NewICacheEngine(ICacheConfig{
				Prog: prog, Hier: smallHier(), Hybrid: bpred.NewHybrid(),
				Indirect: bpred.NewIndirectPredictor(1 << 8),
			})
			return e, &e.bundle
		},
	}
	for name, build := range engines {
		t.Run(name, func(t *testing.T) {
			clean, _ := build()
			dirty, buf := build()
			var seen struct{ fromTC, inactive, promoted, slot, hybrid int }
			pos, pc := 0, prog.Entry
			for n := 0; pos < len(pcs); n++ {
				ins := buf.Insts[:cap(buf.Insts)]
				for i := range ins {
					poison.Fill(&ins[i])
				}
				got, want := dirty.Fetch(pc), clean.Fetch(pc)
				if !reflect.DeepEqual(*got, *want) {
					t.Fatalf("fetch %d at pc %d: poisoned engine delivered %+v, clean engine %+v", n, pc, *got, *want)
				}
				countSeen(&seen.fromTC, want.FromTC)
				for i := range want.Insts {
					fi := &want.Insts[i]
					countSeen(&seen.inactive, fi.Inactive)
					countSeen(&seen.promoted, fi.Promoted)
					countSeen(&seen.slot, fi.UsedSlot)
					countSeen(&seen.hybrid, fi.UsedHybrid)
				}
				pos += max(1, want.ActiveLen())
				if n%3 == 2 {
					pc = want.NextPC
				} else if pos < len(pcs) {
					pc = pcs[pos]
				}
			}
			if name == "trace" && (seen.fromTC == 0 || seen.inactive == 0 || seen.promoted == 0 || seen.slot == 0) ||
				name == "icache" && seen.hybrid == 0 {
				t.Fatalf("fetches missed a path: %+v", seen)
			}
		})
	}
}

// countSeen counts a condition that held.
func countSeen(n *int, cond bool) {
	if cond {
		*n++
	}
}
