package workload

import (
	"fmt"
	"strings"

	"tracecache/internal/exec"
	"tracecache/internal/isa"
	"tracecache/internal/program"
)

// Analysis summarises the dynamic instruction stream of a program: the
// statistics that determine how the trace cache techniques behave (block
// sizes, branch bias, call/indirect mix). It backs `tcgen -stats` and the
// workload calibration tests.
type Analysis struct {
	Insts  uint64
	Blocks uint64
	Halted bool

	CondBranches uint64
	Taken        uint64
	Calls        uint64
	Returns      uint64
	Indirects    uint64
	Traps        uint64
	Loads        uint64
	Stores       uint64

	// BlockSizeHist counts dynamic fetch-block sizes (index = size,
	// clamped to the last bin).
	BlockSizeHist [33]uint64

	// Site-level branch behaviour (sites executed at least MinSiteExecs
	// times).
	Sites          int
	BiasedSites    int     // dominant direction >= BiasCutoff
	BiasedDynShare float64 // fraction of warm dynamic branches from biased sites
	MaxCallDepth   int
}

// MinSiteExecs is the execution count below which a branch site is
// considered too cold to classify.
const MinSiteExecs = 16

// BiasCutoff is the dominant-direction fraction above which a branch site
// counts as strongly biased, following the branch classification and
// filtering literature the paper draws on (Chang et al.).
const BiasCutoff = 0.9

// Analyze executes the program sequentially for up to limit instructions
// and summarises the dynamic stream.
func Analyze(p *program.Program, limit uint64) Analysis {
	var a Analysis
	takenBy := map[int][2]uint64{}
	run := uint64(0)
	depth := 0
	_, a.Halted = exec.Trace(p, limit, func(si *exec.StepInfo) bool {
		a.Insts++
		run++
		if si.Inst.IsControl() {
			a.Blocks++
			if run >= uint64(len(a.BlockSizeHist)) {
				run = uint64(len(a.BlockSizeHist)) - 1
			}
			a.BlockSizeHist[run]++
			run = 0
		}
		switch {
		case si.Inst.IsCondBranch():
			a.CondBranches++
			c := takenBy[si.PC]
			if si.Taken {
				a.Taken++
				c[1]++
			} else {
				c[0]++
			}
			takenBy[si.PC] = c
		case si.Inst.Op == isa.OpCall:
			a.Calls++
			depth++
			if depth > a.MaxCallDepth {
				a.MaxCallDepth = depth
			}
		case si.Inst.IsReturn():
			a.Returns++
			if depth > 0 {
				depth--
			}
		case si.Inst.IsIndirect():
			a.Indirects++
		case si.Inst.IsTrap():
			a.Traps++
		case si.Inst.IsLoad():
			a.Loads++
		case si.Inst.IsStore():
			a.Stores++
		}
		return true
	})
	var dyn, biasedDyn uint64
	//tcvet:ignore determinism commutative reduction: per-site counts sum into totals, order cannot reach results
	for _, c := range takenBy {
		total := c[0] + c[1]
		if total < MinSiteExecs {
			continue
		}
		a.Sites++
		dyn += total
		hi := c[0]
		if c[1] > hi {
			hi = c[1]
		}
		if float64(hi) >= BiasCutoff*float64(total) {
			a.BiasedSites++
			biasedDyn += total
		}
	}
	if dyn > 0 {
		a.BiasedDynShare = float64(biasedDyn) / float64(dyn)
	}
	return a
}

// MeanBlockSize returns the mean dynamic fetch-block size.
func (a Analysis) MeanBlockSize() float64 {
	if a.Blocks == 0 {
		return 0
	}
	return float64(a.Insts) / float64(a.Blocks)
}

// BranchFraction returns conditional branches per instruction.
func (a Analysis) BranchFraction() float64 {
	if a.Insts == 0 {
		return 0
	}
	return float64(a.CondBranches) / float64(a.Insts)
}

// TakenFraction returns the taken rate of conditional branches.
func (a Analysis) TakenFraction() float64 {
	if a.CondBranches == 0 {
		return 0
	}
	return float64(a.Taken) / float64(a.CondBranches)
}

// String renders a compact report.
func (a Analysis) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "insts %d, blocks %d (mean %.2f)\n", a.Insts, a.Blocks, a.MeanBlockSize())
	fmt.Fprintf(&b, "cond branches %.1f%% of insts, %.1f%% taken\n",
		100*a.BranchFraction(), 100*a.TakenFraction())
	fmt.Fprintf(&b, "warm sites %d, strongly biased %d (%.1f%% of dynamic branches)\n",
		a.Sites, a.BiasedSites, 100*a.BiasedDynShare)
	fmt.Fprintf(&b, "calls %d, returns %d, indirect %d, traps %d, max depth %d\n",
		a.Calls, a.Returns, a.Indirects, a.Traps, a.MaxCallDepth)
	fmt.Fprintf(&b, "loads %d, stores %d\n", a.Loads, a.Stores)
	return b.String()
}
