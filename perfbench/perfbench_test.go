package main

import (
	"bytes"
	"encoding/json"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"runtime/pprof"
	"strconv"
	"strings"
	"testing"
	"time"

	"tracecache/internal/config"
	"tracecache/internal/stats"
	"tracecache/internal/trace"
	"tracecache/perfbench/refkernel"
)

// TestSeedDeterminism: the same program seed gives identical programs,
// sampling schedules and detailed truth; another gives different programs.
func TestSeedDeterminism(t *testing.T) {
	type bench struct {
		name  string
		scale int
	}
	var all []bench
	for _, b := range replayBenches {
		all = append(all, bench{b, 1})
	}
	for _, b := range sampledBenches {
		all = append(all, bench{b.name, b.scale})
	}
	for _, b := range all {
		a1, err := generate(nil, b.name, b.scale, 7)
		if err != nil {
			t.Fatal(err)
		}
		a2, _ := generate(nil, b.name, b.scale, 7)
		other, _ := generate(nil, b.name, b.scale, 8)
		if a1.Hash() != a2.Hash() {
			t.Errorf("%s x%d: seed 7 generated two different programs", b.name, b.scale)
		}
		if a1.Hash() == other.Hash() {
			t.Errorf("%s x%d: seeds 7 and 8 generated the same program", b.name, b.scale)
		}
	}
	c := config.Baseline()
	if sampledConfig(c, 7).Hash() != sampledConfig(c, 7).Hash() {
		t.Error("seed 7 gave two different sampling schedules")
	}
	if sampledConfig(c, 7).Sampling == sampledConfig(c, 8).Sampling {
		t.Error("seeds 7 and 8 gave the same sampling schedule")
	}

	f1, err := newFrontend(7)
	if err != nil {
		t.Fatal(err)
	}
	f2, _ := newFrontend(7)
	for _, f := range []*frontend{f1, f2} {
		f.streams = nil
		prog, err := generate(nil, "compress", 1, 7)
		if err != nil {
			t.Fatal(err)
		}
		f.streams = append(f.streams, stream{bench: "compress", prog: prog})
		if err := f.computeTruth(); err != nil {
			t.Fatal(err)
		}
	}
	if digest(f1.truth) != digest(f2.truth) {
		t.Error("seed 7 gave two different detailed truths")
	}
}

// TestStoredExpectedData: every workload's stored expected data matches
// the budgets the benchmark runs.
func TestStoredExpectedData(t *testing.T) {
	for name, params := range map[string]string{
		wSuite: suiteParams(), wReplay: replayParams(), wSampled: sampledParams(),
	} {
		e, err := loadExpected(name, params)
		if err != nil {
			t.Fatal(err)
		}
		if len(e.Points) == 0 {
			t.Errorf("%s: no expected point digests", name)
		}
	}
}

// TestDigestGatePerturbation: perturbing any single counter of a run
// fails the digest gate.
func TestDigestGatePerturbation(t *testing.T) {
	e, err := loadExpected(wReplay, replayParams())
	if err != nil {
		t.Fatal(err)
	}
	truth, ok := e.Truth["compress"]
	if !ok {
		t.Fatal("no stored truth for compress")
	}
	run := truth.Run
	gate := newGate(map[string]string{"p": runDigest(&run)})
	if err := gate.check("p", runDigest(&run)); err != nil {
		t.Fatalf("unperturbed run: %v", err)
	}
	v := reflect.ValueOf(&run).Elem()
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		if f.Kind() != reflect.Uint64 {
			continue
		}
		f.SetUint(f.Uint() + 1)
		if gate.check("p", runDigest(&run)) == nil {
			t.Errorf("perturbing %s passed the digest gate", v.Type().Field(i).Name)
		}
		f.SetUint(f.Uint() - 1)
	}
	run.Hist.Counts[3][1]++
	if gate.check("p", runDigest(&run)) == nil {
		t.Error("perturbing the fetch histogram passed the digest gate")
	}
	run.Hist.Counts[3][1]--
	run.Meta = &stats.Meta{WallMillis: 12345}
	if err := gate.check("p", runDigest(&run)); err != nil {
		t.Errorf("Meta must not take part in the digest: %v", err)
	}
	if newGate(map[string]string{}).check("unknown", "x") == nil {
		t.Error("a stored gate accepted a point it has no digest for")
	}
	g := newGate(nil)
	if g.check("k", "a") != nil || g.check("k", "a") != nil || g.check("k", "b") == nil {
		t.Error("an unstored gate must take the first digest and hold later ones to it")
	}
}

// TestOwnSeedVerdictsFail: at a program seed other than the default,
// every fidelity-contract violation of the workload's own truth points
// counts as a failed operation.
func TestOwnSeedVerdictsFail(t *testing.T) {
	f, err := newFrontend(7)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := generate(nil, "compress", 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	data, rec, err := record(replayRecordConfig(), prog)
	if err != nil {
		t.Fatal(err)
	}
	hdr, recs, err := trace.ReadAll(data)
	if err != nil {
		t.Fatal(err)
	}
	f.streams = []stream{{bench: "compress", prog: prog, hdr: hdr, recs: recs, rec: rec}}
	if err := f.computeTruth(); err != nil {
		t.Fatal(err)
	}
	f.gate = newGate(nil)
	honest := &ledger{}
	(&fidelity{lg: honest}).replay(f)

	// Both truth points' detailed runs now retire far more instructions
	// than the replays: two contract violations.
	f.streams[0].rec.Run.Retired += 1000
	tr := f.truth["compress"]
	tr.Run.Retired += 1000
	f.truth["compress"] = tr
	lg := &ledger{}
	(&fidelity{lg: lg}).replay(f)
	if lg.attempted != honest.attempted || lg.failed != honest.failed+2 {
		t.Errorf("perturbed truth: %d of %d failed, want %d of %d", lg.failed, lg.attempted, honest.failed+2, honest.attempted)
	}
}

// TestSelfTimes checks the self-time arithmetic on a hand-built tree:
// a root 0..100 with children 10..30 and 20..50 (overlapping, union 40)
// and 60..70, one grandchild 12..18 under the first child.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "rep", Start: 0, End: 100, Parent: -1},
		{Name: "point", Start: 10, End: 30, Parent: 0, Point: 1},
		{Name: "point", Start: 20, End: 50, Parent: 0, Point: 2},
		{Name: "kernel", Start: 60, End: 70, Parent: 0},
		{Name: "decode", Start: 12, End: 18, Parent: 1, Point: 1},
		{Name: "late", Start: 150, End: 160, Parent: -1},
	}
	got := selfTimes(spans, 0, 100)
	want := map[string]int64{"rep": 100 - 40 - 10, "point": (20 - 6) + 30, "kernel": 10, "decode": 6}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
	if c := covered([][2]int64{{5, 15}, {0, 3}, {14, 20}, {40, 60}}, 2, 50); c != 1+15+10 {
		t.Errorf("covered = %d, want 26", c)
	}

	tr := newTracer()
	tr.begin("outer", false)
	tr.begin("inner", true)
	tr.end()
	tr.pointStart("k", "point")
	tr.pointEnd("k", "point")
	tr.end()
	s := tr.snapshot()
	if len(s) != 3 || s[1].Parent != 0 || s[2].Parent != 0 || s[1].Point == 0 || s[2].Point == s[1].Point {
		t.Errorf("tracer spans %+v", s)
	}
}

// TestRefKernel: the reference kernel allocates nothing and imports no
// package of the simulator.
func TestRefKernel(t *testing.T) {
	k := refkernel.New()
	if n := testing.AllocsPerRun(3, func() { k.Run() }); n != 0 {
		t.Errorf("kernel allocates %v objects per run", n)
	}
	files, err := filepath.Glob("refkernel/*.go")
	if err != nil || len(files) == 0 {
		t.Fatalf("no kernel sources: %v", err)
	}
	for _, f := range files {
		af, err := parser.ParseFile(token.NewFileSet(), f, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, im := range af.Imports {
			if p, _ := strconv.Unquote(im.Path.Value); strings.HasPrefix(p, "tracecache") {
				t.Errorf("%s imports %s", f, p)
			}
		}
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestMetricNames: every metric name and unit is well formed and used
// once.
func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.name) {
			t.Errorf("bad metric name %q", d.name)
		}
		if !unitRE.MatchString(d.unit) {
			t.Errorf("%s: bad unit %q", d.name, d.unit)
		}
		if d.better != "higher" && d.better != "lower" {
			t.Errorf("%s: better %q", d.name, d.better)
		}
		if seen[d.name] {
			t.Errorf("metric %s declared twice", d.name)
		}
		seen[d.name] = true
	}
	for _, l := range profiledLayers {
		if !seen[l+".cpu_share_pct"] {
			t.Errorf("profiled layer %s has no cpu_share_pct metric", l)
		}
	}
}

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command   []string `json:"command"`
	Paths     []string `json:"paths"`
	Seconds   int      `json:"run_seconds"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

// TestBenchmarkFile: BENCHMARK.json lists exactly the metrics and
// workloads this program prints, and every per-layer metric names the
// end-to-end metric and the workloads it should move.
func TestBenchmarkFile(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != 3 || b.Workloads[0].Name != wSuite || b.Workloads[1].Name != wReplay || b.Workloads[2].Name != wSampled {
		t.Errorf("workloads %+v", b.Workloads)
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d printed", len(b.EndToEnd), len(endToEnd))
	}
	e2e := map[string]bool{}
	for i, d := range endToEnd {
		m := b.EndToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end_to_end[%d] = %+v, program declares %+v", i, m, d)
		}
		if d.bound <= 0 || d.bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.name, d.bound)
		}
		e2e[d.name] = true
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d printed", len(b.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		m := b.PerLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per_layer[%d] = %+v, program declares %+v", i, m, d)
		}
		if !e2e[d.moves] && !strings.HasPrefix(d.name, "host.") {
			t.Errorf("%s: moves %q, not an end-to-end metric", d.name, d.moves)
		}
		named := false
		for _, w := range []string{wSuite, wReplay, wSampled} {
			named = named || strings.Contains(d.where, w)
		}
		if !named {
			t.Errorf("%s: names no workload where it shows (%q)", d.name, d.where)
		}
	}
}

// TestProfileShares writes a real CPU profile with span labels and
// checks that reading it through go tool pprof attributes labelled
// samples and leaf packages.
func TestProfileShares(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("no go command to run pprof:", err)
	}
	path := filepath.Join(t.TempDir(), "cpu.pprof")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		t.Skip("CPU profiler unavailable:", err)
	}
	tr := newTracer()
	tr.labels = true
	k := refkernel.New()
	deadline := time.Now().Add(300 * time.Millisecond)
	tr.begin("host.ref_kernel", false)
	for time.Now().Before(deadline) {
		k.Run()
	}
	tr.end()
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	ps, err := readProfile(path)
	if err != nil {
		t.Fatal(err)
	}
	if ps.total == 0 {
		t.Skip("no samples collected")
	}
	if ps.bySpan["host.ref_kernel"] == 0 || ps.byLayer["host"] == 0 {
		t.Errorf("kernel samples not attributed: spans %v layers %v", ps.bySpan, ps.byLayer)
	}
	var layers, spans int64
	for _, v := range ps.byLayer {
		layers += v
	}
	for _, v := range ps.bySpan {
		spans += v
	}
	if layers != ps.total || spans != ps.total {
		t.Errorf("shares do not add up: layers %d, spans %d, total %d", layers, spans, ps.total)
	}
	for fn, want := range map[string]string{
		"tracecache/internal/sim.(*Simulator).stepCycle":    "sim",
		"tracecache/internal/core.(*FillUnit).Retire.func1": "core",
		"runtime.mallocgc": "runtime",
		"sync/atomic.(*Pointer[tracecache/internal/x]).Load": "other",
		"tracecache/perfbench/refkernel.(*Kernel).Run":       "host",
		"main.main": "other",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
	garbage := filepath.Join(t.TempDir(), "garbage.pprof")
	if err := os.WriteFile(garbage, []byte("not a profile"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readProfile(garbage); err == nil {
		t.Error("readProfile accepted garbage")
	}
}
