package sim

import (
	"testing"

	"tracecache/internal/workload"
)

// TestSuitePointAllocs bounds the allocations of one suite-detailed point
// (gcc, 1k warm-up + 4k measured instructions: New plus Run), so the
// seeded engine dependency lists, the closure-free predictor callback and
// the stable inject-queue buffer cannot quietly regress. Each bound sits
// about 10% above the measured count (3,091 and 709); the counts are the
// same under -race.
func TestSuitePointAllocs(t *testing.T) {
	p, ok := workload.ByName("gcc")
	if !ok {
		t.Fatal("missing workload")
	}
	prog := p.MustGenerate()
	cases := []struct {
		cfg   Config
		bound float64
	}{
		{DefaultConfig(), 3400},
		{ICacheConfig(), 780},
	}
	for _, tc := range cases {
		cfg := tc.cfg
		cfg.WarmupInsts, cfg.MaxInsts = 1_000, 4_000
		t.Run(cfg.Name, func(t *testing.T) {
			n := testing.AllocsPerRun(3, func() {
				s, err := New(cfg, prog)
				if err != nil {
					t.Fatal(err)
				}
				s.Run()
			})
			t.Logf("%.0f allocations per point", n)
			if n > tc.bound {
				t.Errorf("%.0f allocations per point, bound %.0f", n, tc.bound)
			}
		})
	}
}
