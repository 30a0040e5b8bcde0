package sim

import (
	"reflect"
	"testing"

	"tracecache/internal/core"
	"tracecache/internal/poison"
)

// TestPoisonedWindowCarriesNothing: dispatch fills a reused window slot
// by assigning every field, so a simulator whose every window slot holds
// garbage before the first dispatch runs gcc at 20k warm-up + 60k
// measured exactly as a clean one, on both trace-cache headline machines
// and the icache reference, and with the self-check layer on, whose
// lockstep compare reads the checker's own slot fields.
func TestPoisonedWindowCarriesNothing(t *testing.T) {
	prog := gccProgram(t)
	best := DefaultConfig()
	best.Name = "promo-pack-costreg"
	best.Fill = core.DefaultFillConfig(core.PackCostRegulated, 64)
	best.SplitMBP = true
	for _, cfg := range []Config{DefaultConfig(), best, ICacheConfig()} {
		t.Run(cfg.Name, func(t *testing.T) {
			cfg.WarmupInsts, cfg.MaxInsts = 20_000, 60_000
			want := *mustSim(t, cfg, prog).Run()
			want.Meta = nil
			for _, check := range []bool{false, true} {
				cfg.Check = check
				s := mustSim(t, cfg, prog)
				for i := range s.window {
					poison.Fill(&s.window[i])
				}
				got := *s.Run()
				got.Meta = nil
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("check=%v: poisoned window ran\n%+v\nclean window ran\n%+v", check, got, want)
				}
				if chk := s.Checker(); chk != nil && chk.Total() != 0 {
					t.Fatalf("self-check violations:\n%s", chk.Report())
				}
			}
		})
	}
}
