package sim

import (
	"testing"

	"tracecache/internal/core"
	"tracecache/internal/obs"
	"tracecache/internal/workload"
)

// checkedConfigs is a cross-section of the machine space: every fetch
// mechanism, promotion, and each packing policy.
func checkedConfigs() []Config {
	base := DefaultConfig()
	promo := DefaultConfig()
	promo.Name = "promotion"
	promo.Fill = core.DefaultFillConfig(core.PackAtomic, 64)
	promo.SplitMBP = true
	costreg := DefaultConfig()
	costreg.Name = "costreg"
	costreg.Fill = core.DefaultFillConfig(core.PackCostRegulated, 64)
	costreg.SplitMBP = true
	unreg := DefaultConfig()
	unreg.Name = "unreg"
	unreg.Fill = core.DefaultFillConfig(core.PackUnregulated, 0)
	return []Config{base, ICacheConfig(), promo, costreg, unreg}
}

// TestCheckerCleanAcrossConfigs runs the self-check layer over a real
// workload under every fetch mechanism and packing policy and requires
// zero violations: lockstep, structural, and conservation.
func TestCheckerCleanAcrossConfigs(t *testing.T) {
	p, ok := workload.ByName("gcc")
	if !ok {
		t.Fatal("missing workload")
	}
	prog := p.MustGenerate()
	for _, cfg := range checkedConfigs() {
		cfg := cfg
		t.Run(cfg.Name, func(t *testing.T) {
			cfg.WarmupInsts = 10_000
			cfg.MaxInsts = 20_000
			cfg.Check = true
			s := mustSim(t, cfg, prog)
			s.Run()
			chk := s.Checker()
			if chk == nil {
				t.Fatal("Check=true built no checker")
			}
			if chk.Total() != 0 {
				t.Fatalf("self-check violations:\n%s", chk.Report())
			}
			if chk.Commits() == 0 {
				t.Fatal("checker compared no commits")
			}
		})
	}
}

// TestCheckerRegression8WideSingleHybrid is the regression test for the
// wrong-path inactive-suffix injection the checker flushed out: on an
// 8-wide trace cache sequenced by the single hybrid predictor, a
// mispredicting branch past the predictor's slot budget used to inject
// the segment's embedded-path suffix — wrong-path instructions that then
// committed. The lockstep layer catches any recurrence on the first bad
// commit.
func TestCheckerRegression8WideSingleHybrid(t *testing.T) {
	p, _ := workload.ByName("gcc")
	prog := p.MustGenerate()
	cfg := DefaultConfig()
	cfg.Name = "8wide-single-hybrid"
	cfg.FetchWidth = 8
	cfg.Fill = core.DefaultFillConfig(core.PackAtomic, 64)
	cfg.Fill.MaxInsts = 8
	cfg.SplitMBP = false
	cfg.SingleHybrid = true
	cfg.WarmupInsts = 20_000
	cfg.MaxInsts = 40_000
	cfg.Check = true
	s := mustSim(t, cfg, prog)
	s.Run()
	if chk := s.Checker(); chk.Total() != 0 {
		t.Fatalf("self-check violations:\n%s", chk.Report())
	}
}

// TestCheckerCleanUnderFastForwardAndCheckpoint covers the checker's
// fast-forward path: the lockstep reference must resume from the same
// functional prefix as the simulator.
func TestCheckerCleanUnderFastForwardAndCheckpoint(t *testing.T) {
	p, _ := workload.ByName("compress")
	prog := p.MustGenerate()
	cfg := DefaultConfig()
	cfg.FastForwardInsts = 30_000
	cfg.WarmupInsts = 5_000
	cfg.MaxInsts = 15_000
	cfg.Check = true

	s := mustSim(t, cfg, prog)
	s.Run()
	if chk := s.Checker(); chk.Total() != 0 {
		t.Fatalf("fast-forward: self-check violations:\n%s", chk.Report())
	}
}

// TestCheckDoesNotChangeStatistics pins the contract EXPERIMENTS.md
// documents: enabling the self-check layer changes no simulated
// statistic.
func TestCheckDoesNotChangeStatistics(t *testing.T) {
	p, _ := workload.ByName("li")
	prog := p.MustGenerate()
	cfg := DefaultConfig()
	cfg.Fill = core.DefaultFillConfig(core.PackCostRegulated, 64)
	cfg.SplitMBP = true
	cfg.WarmupInsts = 10_000
	cfg.MaxInsts = 20_000

	plain := mustSim(t, cfg, prog).Run()
	cfg.Check = true
	checked := mustSim(t, cfg, prog).Run()
	a, b := *plain, *checked
	a.Meta, b.Meta = nil, nil
	if a != b {
		t.Errorf("checking changed statistics:\n plain %+v\n check %+v", a, b)
	}
}

// TestCheckExcludedFromConfigHash pins that a checked and an unchecked
// run of the same machine share a configuration hash, so a violation's
// replay hash identifies the machine, not the harness.
func TestCheckExcludedFromConfigHash(t *testing.T) {
	a := DefaultConfig()
	b := DefaultConfig()
	b.Check = true
	if a.Hash() != b.Hash() {
		t.Errorf("Check changed the config hash: %s vs %s", a.Hash(), b.Hash())
	}
}

// TestCheckerEmitsViolationEvents wires a bus and checks a violation
// reaches it as an obs event. The violation is synthesized by feeding the
// checker an impossible segment through the fill-unit hook contract.
func TestCheckerEmitsViolationEvents(t *testing.T) {
	p, _ := workload.ByName("compress")
	prog := p.MustGenerate()
	cfg := DefaultConfig()
	cfg.Fill = core.DefaultFillConfig(core.PackAtomic, 64)
	cfg.SplitMBP = true
	cfg.MaxInsts = 2_000
	cfg.Check = true
	s := mustSim(t, cfg, prog)
	bus := obs.NewBus()
	var events int
	bus.Attach(obs.FuncSink(func(e obs.Event) {
		if e.Kind == obs.KindCheckViolation {
			events++
		}
	}))
	s.AttachObserver(bus)
	// An empty segment violates the structural size rule.
	s.chk.OnSegment(&core.Segment{})
	if s.chk.Total() == 0 {
		t.Fatal("empty segment accepted")
	}
	if events == 0 {
		t.Error("violation did not reach the event bus")
	}
}
