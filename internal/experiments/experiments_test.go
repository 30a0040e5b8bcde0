package experiments

import (
	"strings"
	"testing"

	"tracecache/internal/config"
	"tracecache/internal/program"
	"tracecache/internal/sim"
	"tracecache/internal/stats"
)

// testRunner uses tiny budgets: these tests verify structure and plumbing,
// not calibration (cmd/tcbench and the root benchmarks run full budgets).
func testRunner() *Runner { return NewRunner(15_000, 25_000) }

func TestRegistryComplete(t *testing.T) {
	es := All()
	if len(es) != 15 {
		t.Fatalf("experiments = %d, want 15", len(es))
	}
	want := []string{"table1", "fig4", "table2", "fig6", "fig7", "table3",
		"fig9", "fig10", "table4", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16"}
	for i, id := range want {
		if es[i].ID != id {
			t.Errorf("experiment %d = %s, want %s", i, es[i].ID, id)
		}
		if es[i].Title == "" || es[i].Paper == "" || es[i].Run == nil {
			t.Errorf("experiment %s incomplete", id)
		}
	}
	if _, ok := ByID("fig10"); !ok {
		t.Error("ByID failed")
	}
	if _, ok := ByID("nope"); ok {
		t.Error("unknown ID found")
	}
	if len(IDs()) != 15 {
		t.Error("IDs wrong")
	}
}

func TestRunnerMemoizes(t *testing.T) {
	r := testRunner()
	a := runT(t, r, config.Baseline(), "compress")
	b := runT(t, r, config.Baseline(), "compress")
	if a != b {
		t.Error("runs not memoized")
	}
	if len(r.CachedKeys()) != 1 {
		t.Errorf("cached = %v", r.CachedKeys())
	}
	c := runT(t, r, config.ICache(), "compress")
	if c == a || len(r.CachedKeys()) != 2 {
		t.Error("distinct configs must not collide")
	}
	// The memo keys on content, not name: an icache machine named
	// "baseline" is not the baseline trace-cache machine.
	renamed := config.ICache()
	renamed.Name = "baseline"
	d := runT(t, r, renamed, "compress")
	if d == a || len(r.CachedKeys()) != 3 {
		t.Errorf("same-name configs with different content shared a result: cached = %v", r.CachedKeys())
	}
	if d.EffFetchRate() != c.EffFetchRate() {
		t.Errorf("renamed icache eff rate %v, want the icache machine's %v", d.EffFetchRate(), c.EffFetchRate())
	}
}

func TestSweepOrder(t *testing.T) {
	r := testRunner()
	runs, err := r.SweepE(config.Baseline())
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 15 {
		t.Fatalf("sweep = %d", len(runs))
	}
	if runs[0].Benchmark != "compress" || runs[14].Benchmark != "tex" {
		t.Errorf("order: %s ... %s", runs[0].Benchmark, runs[14].Benchmark)
	}
}

func TestTable1Smoke(t *testing.T) {
	out := outT(t, Table1, testRunner())
	for _, want := range []string{"compress", "tex", "95M", "jump.i"} {
		if !strings.Contains(out, want) {
			t.Errorf("table1 missing %q", want)
		}
	}
}

func TestFig4Fig6Smoke(t *testing.T) {
	r := testRunner()
	for _, f := range []func(*Runner) (string, error){Fig4, Fig6} {
		out := outT(t, f, r)
		for _, want := range []string{"gcc", "Ave fetch size", "PartialMatch", "MaximumBRs"} {
			if !strings.Contains(out, want) {
				t.Errorf("breakdown missing %q:\n%s", want, out)
			}
		}
	}
}

func TestTable2Smoke(t *testing.T) {
	out := outT(t, Table2, testRunner())
	for _, want := range []string{"icache", "baseline", "threshold = 8", "threshold = 256"} {
		if !strings.Contains(out, want) {
			t.Errorf("table2 missing %q", want)
		}
	}
}

func TestTable3Smoke(t *testing.T) {
	out := outT(t, Table3, testRunner())
	if !strings.Contains(out, "0 or 1 predictions") || !strings.Contains(out, "threshold = 64") {
		t.Errorf("table3:\n%s", out)
	}
}

func TestTable4Smoke(t *testing.T) {
	out := outT(t, Table4, testRunner())
	for _, want := range []string{"tex", "unreg", "cost-reg", "n=2", "n=4", "Ave Eff Fetch Rate"} {
		if !strings.Contains(out, want) {
			t.Errorf("table4 missing %q:\n%s", want, out)
		}
	}
}

func TestFiguresSmoke(t *testing.T) {
	r := testRunner()
	cases := map[string][]string{
		"fig7":  {"threshold=64", "plot"},
		"fig9":  {"baseline", "packing", "Average"},
		"fig10": {"promotion+packing", "over baseline"},
		"fig11": {"icache", "promo+pack", "Overall"},
		"fig12": {"Useful Fetch", "Branch Misses", "Misfetches"},
		"fig13": {"%"},
		"fig14": {"%"},
		"fig15": {"Average change"},
		"fig16": {"Overall"},
	}
	for id, wants := range cases {
		e, ok := ByID(id)
		if !ok {
			t.Fatalf("missing %s", id)
		}
		out, err := e.Run(r)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		for _, w := range wants {
			if !strings.Contains(out, w) {
				t.Errorf("%s missing %q", id, w)
			}
		}
	}
}

func TestFig10ConfigsAreTheFive(t *testing.T) {
	cfgs := Fig10Configs()
	if len(cfgs) != 5 {
		t.Fatalf("fig10 configs = %d", len(cfgs))
	}
}

func TestAvg(t *testing.T) {
	if avg(nil) != 0 {
		t.Error("empty avg")
	}
	if avg([]float64{1, 2, 3}) != 2 {
		t.Error("avg wrong")
	}
}

func TestExtensionsRegistry(t *testing.T) {
	exts := Extensions()
	if len(exts) != 5 {
		t.Fatalf("extensions = %d", len(exts))
	}
	for _, e := range exts {
		if !strings.HasPrefix(e.ID, "ext-") || e.Run == nil || e.Paper == "" {
			t.Errorf("extension %q malformed", e.ID)
		}
		if _, ok := ByID(e.ID); !ok {
			t.Errorf("extension %s not resolvable by ID", e.ID)
		}
	}
}

func TestExtInactiveSmoke(t *testing.T) {
	out := outT(t, ExtInactive, testRunner())
	if !strings.Contains(out, "inactive issue") || !strings.Contains(out, "Average") {
		t.Errorf("ext-inactive:\n%s", out)
	}
}

func TestExtPathAssocSmoke(t *testing.T) {
	out := outT(t, ExtPathAssoc, testRunner())
	if !strings.Contains(out, "path associativity") || !strings.Contains(out, "baseline") {
		t.Errorf("ext-pathassoc:\n%s", out)
	}
}

func TestExtStaticSmoke(t *testing.T) {
	out := outT(t, ExtStatic, testRunner())
	for _, want := range []string{"dynamic eff", "static eff", "AVG"} {
		if !strings.Contains(out, want) {
			t.Errorf("ext-static missing %q:\n%s", want, out)
		}
	}
}

func TestExtTCSizeSmoke(t *testing.T) {
	out := outT(t, ExtTCSize, testRunner())
	for _, want := range []string{"256", "2048", "atomic eff", "costreg eff"} {
		if !strings.Contains(out, want) {
			t.Errorf("ext-tcsize missing %q:\n%s", want, out)
		}
	}
}

func TestRunConfiguredMemoizes(t *testing.T) {
	r := testRunner()
	cfg, prep := StaticPromotionConfig()
	calls := 0
	wrapped := func(c *sim.Config, p *program.Program) {
		calls++
		prep(c, p)
	}
	a, err := r.RunConfiguredE(cfg, "compress", wrapped)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.RunConfiguredE(cfg, "compress", wrapped)
	if err != nil {
		t.Fatal(err)
	}
	if a != b || calls != 1 {
		t.Errorf("memoization failed: calls = %d", calls)
	}
}

// runT simulates or fails the test; smoke tests care about outputs, not
// plumbing errors.
func runT(t *testing.T, r *Runner, cfg sim.Config, bench string) *stats.Run {
	t.Helper()
	run, err := r.RunE(cfg, bench)
	if err != nil {
		t.Fatal(err)
	}
	return run
}

// outT renders an experiment body or fails the test.
func outT(t *testing.T, f func(*Runner) (string, error), r *Runner) string {
	t.Helper()
	out, err := f(r)
	if err != nil {
		t.Fatal(err)
	}
	return out
}
