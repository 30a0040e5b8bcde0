package core

import (
	"tracecache/internal/exec"
	"tracecache/internal/program"
)

// Section 4 notes that branch promotion "can be done statically, as well",
// given ISA encodings that communicate strongly biased branches to the
// hardware, with the advantages that branches need no warm-up before being
// detected as promotable and that irregular-but-biased branches are easier
// to catch — at the cost of missing input-sensitive branches. This file
// implements the profile-and-annotate flow: a profiling run identifies
// strongly biased branch sites, and the fill unit promotes them with their
// static direction instead of consulting the bias table.

// StaticProfileConfig parameterises static promotion profiling.
type StaticProfileConfig struct {
	// Budget is the number of instructions to profile.
	Budget uint64
	// BiasThreshold is the minimum dominant-direction fraction for a
	// branch to be annotated (e.g. 0.95).
	BiasThreshold float64
	// MinExecutions filters out branches too cold to judge.
	MinExecutions uint64
}

// DefaultStaticProfileConfig returns a sensible profiling setup.
func DefaultStaticProfileConfig() StaticProfileConfig {
	return StaticProfileConfig{Budget: 500_000, BiasThreshold: 0.95, MinExecutions: 32}
}

// ProfileStaticPromotions executes the program sequentially for the
// configured budget and returns, for every conditional branch whose
// dominant direction reaches the bias threshold, that direction keyed by
// PC. The result feeds FillConfig.StaticPromotions.
func ProfileStaticPromotions(p *program.Program, cfg StaticProfileConfig) map[int]bool {
	if cfg.Budget == 0 {
		cfg = DefaultStaticProfileConfig()
	}
	type tally struct{ taken, total uint64 }
	counts := make(map[int]*tally)
	exec.Trace(p, cfg.Budget, func(si *exec.StepInfo) bool {
		if !si.Inst.IsCondBranch() {
			return true
		}
		t := counts[si.PC]
		if t == nil {
			t = &tally{}
			counts[si.PC] = t
		}
		t.total++
		if si.Taken {
			t.taken++
		}
		return true
	})
	out := make(map[int]bool)
	//tcvet:ignore determinism per-key map build: each PC decided independently, order cannot reach results
	for pc, t := range counts {
		if t.total < cfg.MinExecutions {
			continue
		}
		frac := float64(t.taken) / float64(t.total)
		switch {
		case frac >= cfg.BiasThreshold:
			out[pc] = true
		case 1-frac >= cfg.BiasThreshold:
			out[pc] = false
		}
	}
	return out
}
