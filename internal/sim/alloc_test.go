package sim

import (
	"runtime"
	"testing"

	"tracecache/internal/core"
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
// quietly regress. The reused case is the same point built from a spare
// that an earlier point of the configuration filled, as a Runner worker
// builds its second and later points: the tables, the trace cache's
// lines, the event buckets, the memory pages and the inactive-suffix
// buffers of branches left in flight are renewed, not allocated. The
// measured counts are fresh 971 and 715, reused 72 and 55. Under -race
// they run a few higher and vary, because the race detector drops
// sync.Pool entries at random: fresh about 978 and 720, reused 84-86 and
// 57-64 averaged over ten points before the suffix buffers were kept
// (81 and 58 after). Each bound sits about 10% above the -race count.
func TestSuitePointAllocs(t *testing.T) {
	prog := gccProgram(t)
	cases := []struct {
		cfg          Config
		fresh, reuse float64
	}{
		{DefaultConfig(), 1060, 95},
		{ICacheConfig(), 780, 68},
	}
	for _, tc := range cases {
		cfg := tc.cfg
		cfg.WarmupInsts, cfg.MaxInsts = 1_000, 4_000
		t.Run(cfg.Name, func(t *testing.T) {
			fresh := testing.AllocsPerRun(3, func() {
				s, err := New(cfg, prog)
				if err != nil {
					t.Fatal(err)
				}
				s.Run()
			})
			var sp Spare
			reused := testing.AllocsPerRun(10, func() {
				s, err := sp.New(cfg, prog)
				if err != nil {
					t.Fatal(err)
				}
				s.Run()
				sp.Keep(s)
			})
			t.Logf("%.0f allocations per fresh point, %.0f per reused point", fresh, reused)
			if fresh > tc.fresh {
				t.Errorf("%.0f allocations per fresh point, bound %.0f", fresh, tc.fresh)
			}
			if reused > tc.reuse {
				t.Errorf("%.0f allocations per reused point, bound %.0f", reused, tc.reuse)
			}
		})
	}
}

// TestSuitePointBytes bounds the bytes of a reused suite point, which
// TestSuitePointAllocs's counts cannot see when one allocation is large:
// a promotion point's 8K-entry bias table is a single 96 KiB allocation.
// The spare keeps the whole fill unit, its buffers and bias table
// included, so ten reused gcc points of promotion with cost-regulated
// packing (tcbench's best) allocate within 2 KB per point of ten reused
// baseline points at the same 1k warm-up + 4k measured, and a reused
// baseline point allocates 16,187 bytes (27,170 while each point
// allocated its fill unit's 10.9 KB of buffers). Under -race it measures
// 17.4-18.2 KB; the baseline bound sits about 10% above that.
func TestSuitePointBytes(t *testing.T) {
	prog := gccProgram(t)
	best := DefaultConfig()
	best.Name = "promo-pack-costreg"
	best.Fill = core.DefaultFillConfig(core.PackCostRegulated, 64)
	best.SplitMBP = true
	perPoint := func(cfg Config) uint64 {
		cfg.WarmupInsts, cfg.MaxInsts = 1_000, 4_000
		var sp Spare
		point := func() {
			s, err := sp.New(cfg, prog)
			if err != nil {
				t.Fatal(err)
			}
			s.Run()
			sp.Keep(s)
		}
		point() // fills the spare
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range 10 {
			point()
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / 10
	}
	base, promo := perPoint(DefaultConfig()), perPoint(best)
	t.Logf("%d bytes per reused baseline point, %d per reused %s point", base, promo, best.Name)
	const baseBound = 20_000
	if base > baseBound {
		t.Errorf("a reused baseline point allocates %d bytes, bound %d", base, baseBound)
	}
	if promo > base+2048 {
		t.Errorf("a reused %s point allocates %d bytes, more than 2 KB above a reused baseline point's %d",
			best.Name, promo, base)
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
