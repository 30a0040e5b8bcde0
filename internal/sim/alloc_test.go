package sim

import (
	"testing"

	"tracecache/internal/program"
	"tracecache/internal/workload"
)

// gccProgram generates the gcc workload.
func gccProgram(t *testing.T) *program.Program {
	t.Helper()
	p, ok := workload.ByName("gcc")
	if !ok {
		t.Fatal("missing workload")
	}
	return p.MustGenerate()
}

// TestSuitePointAllocs bounds the allocations of one suite-detailed point
// (gcc, 1k warm-up + 4k measured instructions: New plus Run), so the
// seeded engine dependency lists, the closure-free predictor callback, the
// stable inject-queue buffer, the fill unit's in-place fill, the trace
// cache's owned lines and the recycled inactive-suffix buffers cannot
// quietly regress. Each bound sits about 10% above the measured count
// (965 and 709); the counts are the same under -race.
func TestSuitePointAllocs(t *testing.T) {
	prog := gccProgram(t)
	cases := []struct {
		cfg   Config
		bound float64
	}{
		{DefaultConfig(), 1060},
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

// TestSkipFunctionalAllocs bounds the allocations of a functional gap on
// a warm simulator (gcc baseline, warmed by 1M fast-forwarded
// instructions): the fill unit fills in place and the trace cache copies
// into lines it already owns, so 100k instructions allocate about as
// little as one call (18 measured, bound about 10% above). The count is
// the same under -race.
func TestSkipFunctionalAllocs(t *testing.T) {
	s, err := New(DefaultConfig(), gccProgram(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.SkipFunctional(1_000_000); err != nil {
		t.Fatal(err)
	}
	n := testing.AllocsPerRun(1, func() {
		if _, err := s.SkipFunctional(100_000); err != nil {
			t.Fatal(err)
		}
	})
	const bound = 20
	t.Logf("%.0f allocations per 100k fast-forwarded instructions", n)
	if n > bound {
		t.Errorf("%.0f allocations per 100k fast-forwarded instructions, bound %d", n, bound)
	}
}

// TestReplayAllocs bounds the allocations per thousand instructions of a
// front-end-only replay (NewReplayer plus ReplayRecords) of a 420k-record
// gcc baseline stream. What remains is each trace-cache line's first fill
// and per-replayer setup (2.13 per thousand measured, bound about 10%
// above). The count is the same under -race.
func TestReplayAllocs(t *testing.T) {
	prog := gccProgram(t)
	cfg := DefaultConfig()
	cfg.WarmupInsts, cfg.MaxInsts = 20_000, 400_000
	h, recs, err := RecordStream(cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	n := testing.AllocsPerRun(1, func() {
		rp, err := NewReplayer(cfg, prog)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := rp.ReplayRecords(h, recs); err != nil {
			t.Fatal(err)
		}
	})
	const bound = 2.35
	perK := n / float64(len(recs)) * 1000
	t.Logf("%.0f allocations replaying %d records: %.2f per thousand", n, len(recs), perK)
	if perK > bound {
		t.Errorf("%.2f allocations per thousand replayed instructions, bound %.2f", perK, bound)
	}
}
