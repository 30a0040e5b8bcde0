package core

import (
	"testing"

	"tracecache/internal/isa"
)

// FuzzFillUnit drives the fill unit with arbitrary retire streams under
// every packing policy and checks the structural segment invariants: the
// fill unit faces whatever the retire stream contains. The counts the fill
// unit stamps on a segment must equal a recount of its flags. The callback
// checks each segment while it is valid and keeps none.
func FuzzFillUnit(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 0, 2, 3, 0, 0, 0, 0, 4}, uint8(1), uint8(8))
	f.Add([]byte{1, 1, 1, 1, 1, 1, 1}, uint8(4), uint8(2))
	f.Add([]byte{5, 0, 0, 5, 0, 0, 5}, uint8(0), uint8(0))
	f.Fuzz(func(t *testing.T, stream []byte, policy, threshold uint8) {
		cfg := DefaultFillConfig(PackPolicy(policy%5), uint32(threshold%16))
		fu := NewFillUnit(cfg, nil)
		bad := ""
		fu.OnSegment = func(s *Segment) {
			if s.Len() < 1 || s.Len() > cfg.MaxInsts {
				bad = "segment length out of range"
			}
			if s.NumBranches() > cfg.MaxBranches {
				bad = "too many branches"
			}
			branches, promoted := 0, 0
			for i, si := range s.Insts {
				if si.Inst.TerminatesSegment() && i != s.Len()-1 {
					bad = "terminator mid-segment"
				}
				if si.Inst.IsCondBranch() && !si.Promoted {
					branches++
				}
				if si.Promoted {
					promoted++
				}
			}
			if branches != s.NumBranches() {
				bad = "branch count disagrees with a recount"
			}
			if promoted != s.NumPromoted() {
				bad = "promoted count disagrees with a recount"
			}
		}
		pc := 0
		for _, b := range stream {
			var in isa.Inst
			taken := b&0x80 != 0
			switch b % 6 {
			case 0:
				in = isa.Inst{Op: isa.OpAdd, Rd: 1, Rs1: 1, Rs2: 2}
			case 1:
				in = isa.Inst{Op: isa.OpBr, Cond: isa.CondEQ, Target: int(b) % 64}
			case 2:
				in = isa.Inst{Op: isa.OpJmp, Target: int(b) % 64}
			case 3:
				in = isa.Inst{Op: isa.OpCall, Target: int(b) % 64}
			case 4:
				in = isa.Inst{Op: isa.OpRet}
			default:
				in = isa.Inst{Op: isa.OpTrap}
			}
			fu.Retire(pc, in, taken)
			pc = (pc + 1) % 4096
			if bad != "" {
				t.Fatalf("%s (stream %v, policy %d)", bad, stream, policy%5)
			}
		}
		if fu.Pending() > cfg.MaxInsts {
			t.Fatalf("pending overflow: %d", fu.Pending())
		}
	})
}
