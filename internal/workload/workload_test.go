package workload

import (
	"strings"
	"testing"

	"tracecache/internal/exec"
	"tracecache/internal/isa"
	"tracecache/internal/program"
)

func TestProfilesAreValidAndDistinct(t *testing.T) {
	ps := Profiles()
	if len(ps) != 15 {
		t.Fatalf("profiles = %d, want 15 (Table 1)", len(ps))
	}
	seen := map[string]bool{}
	seeds := map[int64]bool{}
	for _, p := range ps {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
		if seen[p.Name] {
			t.Errorf("duplicate profile %s", p.Name)
		}
		if seeds[p.Seed] {
			t.Errorf("duplicate seed %d", p.Seed)
		}
		seen[p.Name] = true
		seeds[p.Seed] = true
	}
}

func TestByName(t *testing.T) {
	p, ok := ByName("gcc")
	if !ok || p.Name != "gcc" {
		t.Fatal("gcc profile missing")
	}
	if _, ok := ByName("nonesuch"); ok {
		t.Fatal("unknown profile found")
	}
	if len(Names()) != 15 {
		t.Errorf("Names() = %d", len(Names()))
	}
}

func TestShortNames(t *testing.T) {
	cases := map[string]string{
		"compress": "comp", "gcc": "gcc", "m88ksim": "m88k",
		"gnuplot": "plot", "sim-outorder": "ss", "ghostscript": "gs",
	}
	for in, want := range cases {
		if got := ShortName(in); got != want {
			t.Errorf("ShortName(%s) = %s, want %s", in, got, want)
		}
	}
}

func TestValidateRejectsBadProfiles(t *testing.T) {
	good, _ := ByName("gcc")
	cases := []func(*Profile){
		func(p *Profile) { p.Name = "" },
		func(p *Profile) { p.Funcs = 0 },
		func(p *Profile) { p.StreamWords = 1000 },
		func(p *Profile) { p.WorkWords = 0 },
		func(p *Profile) { p.SwitchWays = 3 },
		func(p *Profile) { p.Mix = BranchMix{Biased: 0.8, Patterned: 0.5} },
		func(p *Profile) { p.StepsPerFunc = [2]int{5, 2} },
		func(p *Profile) { p.FillerSize = [2]int{-1, 3} },
		func(p *Profile) { p.TripCount = [2]int{0, 0} },
		func(p *Profile) { p.PatternPeriods = nil },
		func(p *Profile) { p.PatternPeriods = []int{3} },
	}
	for i, mutate := range cases {
		p := good
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: bad profile accepted", i)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	p, _ := ByName("compress")
	a := p.MustGenerate()
	b := p.MustGenerate()
	if len(a.Code) != len(b.Code) {
		t.Fatalf("non-deterministic code size: %d vs %d", len(a.Code), len(b.Code))
	}
	for i := range a.Code {
		if a.Code[i] != b.Code[i] {
			t.Fatalf("instruction %d differs", i)
		}
	}
}

func TestGenerateAllProfilesExecute(t *testing.T) {
	for _, p := range Profiles() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			prog, err := p.Generate()
			if err != nil {
				t.Fatal(err)
			}
			if err := prog.Validate(); err != nil {
				t.Fatal(err)
			}
			// Execute a window and verify the stream contains the
			// ingredients the simulator needs.
			var branches, taken, calls, rets, indirects uint64
			depthMax := 0
			s := exec.NewState(prog)
			pc := prog.Entry
			const budget = 200000
			var info exec.StepInfo
			for i := 0; i < budget; i++ {
				s.Commit(pc, &info)
				if info.OffImage {
					t.Fatalf("execution left the code image at pc %d", info.PC)
				}
				if info.Halted {
					t.Fatalf("program halted after %d instructions", i)
				}
				in := info.Inst
				switch {
				case in.IsCondBranch():
					branches++
					if info.Taken {
						taken++
					}
				case in.Op == isa.OpCall:
					calls++
				case in.Op == isa.OpRet:
					rets++
				case in.IsIndirect():
					indirects++
				}
				if d := s.CallDepth(); d > depthMax {
					depthMax = d
				}
				pc = info.NextPC
			}
			if branches == 0 {
				t.Error("no conditional branches executed")
			}
			frac := float64(branches) / budget
			if frac < 0.03 || frac > 0.40 {
				t.Errorf("branch fraction = %.3f, out of plausible range", frac)
			}
			tf := float64(taken) / float64(branches)
			if tf < 0.05 || tf > 0.95 {
				t.Errorf("taken fraction = %.3f, suspicious", tf)
			}
			if calls == 0 || rets == 0 {
				t.Error("no call/return activity")
			}
			if depthMax > 200 {
				t.Errorf("call depth reached %d; call DAG is wrong", depthMax)
			}
		})
	}
}

func TestGeneratedBranchBiasMatchesClassMix(t *testing.T) {
	// For a strongly biased profile, a majority of branch sites should be
	// overwhelmingly one-directional.
	p, _ := ByName("vortex")
	prog := p.MustGenerate()
	takenBy := map[int][2]uint64{} // pc -> [not-taken, taken]
	exec.Trace(prog, 400000, func(si *exec.StepInfo) bool {
		if si.Inst.IsCondBranch() {
			c := takenBy[si.PC]
			if si.Taken {
				c[1]++
			} else {
				c[0]++
			}
			takenBy[si.PC] = c
		}
		return true
	})
	var sites, biasedSites int
	var dyn, biasedDyn uint64
	for _, c := range takenBy {
		total := c[0] + c[1]
		if total < 20 {
			continue
		}
		sites++
		dyn += total
		hi := c[0]
		if c[1] > hi {
			hi = c[1]
		}
		if float64(hi)/float64(total) >= 0.95 {
			biasedSites++
			biasedDyn += total
		}
	}
	if sites == 0 {
		t.Fatal("no warm branch sites")
	}
	if f := float64(biasedDyn) / float64(dyn); f < 0.5 {
		t.Errorf("dynamically biased fraction = %.2f, want >= 0.5 (paper: over 50%%)", f)
	}
}

func TestGeneratedCodeSizesDiffer(t *testing.T) {
	gcc, _ := ByName("gcc")
	comp, _ := ByName("compress")
	ng := len(gcc.MustGenerate().Code)
	nc := len(comp.MustGenerate().Code)
	if ng < 3*nc {
		t.Errorf("gcc code (%d) should dwarf compress code (%d)", ng, nc)
	}
	if nc < 200 {
		t.Errorf("compress code suspiciously small: %d", nc)
	}
}

// TestCodeScaleZeroIsByteIdentical pins the growth knob's compatibility
// contract: CodeScale 0 and 1 generate exactly the program an unscaled
// build produces, instruction for instruction and data word for data word.
func TestCodeScaleZeroIsByteIdentical(t *testing.T) {
	for _, name := range []string{"gcc", "compress", "gnuplot"} {
		p, _ := ByName(name)
		ref := p.MustGenerate()
		for _, scale := range []int{0, 1} {
			q := p
			q.CodeScale = scale
			got := q.MustGenerate()
			if len(got.Code) != len(ref.Code) {
				t.Fatalf("%s scale %d: code size %d != %d", name, scale, len(got.Code), len(ref.Code))
			}
			for i := range ref.Code {
				if got.Code[i] != ref.Code[i] {
					t.Fatalf("%s scale %d: instruction %d differs", name, scale, i)
				}
			}
			if len(got.Data) != len(ref.Data) {
				t.Fatalf("%s scale %d: data pages %d != %d", name, scale, len(got.Data), len(ref.Data))
			}
			for i := range ref.Data {
				if got.Data[i] != ref.Data[i] {
					t.Fatalf("%s scale %d: data page %d differs", name, scale, ref.Data[i].Num)
				}
			}
		}
	}
}

// TestCodeScaleGrowsFootprintAndExecutes verifies the paper-scale knob:
// the static image grows roughly with the scale, pool 0 is an exact
// prefix of the unscaled code, and the scaled program executes through
// several pool rotations without leaving the image.
func TestCodeScaleGrowsFootprintAndExecutes(t *testing.T) {
	p, _ := ByName("gcc")
	ref := p.MustGenerate()
	sp := p.Scaled(4)
	if sp.Name != "gccx4" || sp.CodeScale != 4 {
		t.Fatalf("Scaled: name %q scale %d", sp.Name, sp.CodeScale)
	}
	prog := sp.MustGenerate()
	if err := prog.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(prog.Code) < 3*len(ref.Code) {
		t.Fatalf("scaled code %d, want >= 3x unscaled %d", len(prog.Code), len(ref.Code))
	}
	// Pool 0 is emitted first with the same random draws, so the unscaled
	// function bodies are a literal prefix of the scaled image.
	for i, in := range ref.Code[:len(ref.Code)/2] {
		if prog.Code[i] != in {
			t.Fatalf("pool 0 diverges from unscaled code at instruction %d", i)
		}
	}
	// Execute long enough to cross all four pools (one per outer trip) and
	// verify the stream actually visits code beyond the unscaled footprint.
	visitedHigh := false
	s := exec.NewState(prog)
	pc := prog.Entry
	var info exec.StepInfo
	for i := 0; i < 400_000; i++ {
		s.Commit(pc, &info)
		if info.OffImage {
			t.Fatalf("execution left the code image at pc %d", info.PC)
		}
		if info.Halted {
			t.Fatalf("scaled program halted after %d instructions", i)
		}
		if info.PC >= len(ref.Code) {
			visitedHigh = true
		}
		pc = info.NextPC
	}
	if !visitedHigh {
		t.Error("scaled run never left the pool-0 footprint; phase dispatch is broken")
	}
}

func TestCodeScaleValidation(t *testing.T) {
	p, _ := ByName("gcc")
	for _, bad := range []int{-1, 3, 6, 128} {
		q := p
		q.CodeScale = bad
		if err := q.Validate(); err == nil {
			t.Errorf("CodeScale %d accepted", bad)
		}
	}
	for _, good := range []int{0, 1, 2, 16, 64} {
		q := p
		q.CodeScale = good
		if err := q.Validate(); err != nil {
			t.Errorf("CodeScale %d rejected: %v", good, err)
		}
	}
	if got := p.Scaled(1); got.Name != "gcc" || got.CodeScale != 0 {
		t.Errorf("Scaled(1) changed the profile: %q scale %d", got.Name, got.CodeScale)
	}
}

func TestSwitchTablesResolve(t *testing.T) {
	p, _ := ByName("python") // switch-heavy
	prog := p.MustGenerate()
	// Every indirect jump executed must land inside the image (exercised
	// via execution in TestGenerateAllProfilesExecute); here we verify the
	// static tables point into the image.
	n := 0
	for _, pg := range prog.Data {
		for i, v := range pg.Words {
			addr := (pg.Num<<program.PageShift + uint64(i)) * 8
			if addr >= tableBase && v != 0 {
				n++
				if v < 0 || v >= int64(len(prog.Code)) {
					t.Fatalf("jump table entry at %#x = %d out of range", addr, v)
				}
			}
		}
	}
	if n == 0 {
		t.Fatal("python profile generated no jump tables")
	}
}

func TestMeanDynamicBlockSize(t *testing.T) {
	// The paper's machine sees ~2 fetch blocks per 10.7-instruction trace
	// fetch; dynamic blocks should average roughly 4-9 instructions.
	for _, name := range []string{"gcc", "compress", "ijpeg"} {
		p, _ := ByName(name)
		prog := p.MustGenerate()
		var insts, blocks uint64
		run := uint64(0)
		exec.Trace(prog, 300000, func(si *exec.StepInfo) bool {
			insts++
			run++
			if si.Inst.IsControl() {
				blocks++
				run = 0
			}
			return true
		})
		mean := float64(insts) / float64(blocks)
		if mean < 2.5 || mean > 14 {
			t.Errorf("%s: mean dynamic block size = %.2f, implausible", name, mean)
		}
	}
}

func TestAnalyzeChaosLikeProgram(t *testing.T) {
	p, _ := ByName("compress")
	prog := p.MustGenerate()
	a := Analyze(prog, 200_000)
	if a.Insts != 200_000 {
		t.Errorf("insts = %d", a.Insts)
	}
	if a.CondBranches == 0 || a.Blocks == 0 || a.Calls == 0 || a.Returns == 0 {
		t.Errorf("analysis missing activity: %+v", a)
	}
	if m := a.MeanBlockSize(); m < 2.5 || m > 14 {
		t.Errorf("mean block = %.2f", m)
	}
	if a.BranchFraction() <= 0 || a.BranchFraction() > 0.5 {
		t.Errorf("branch fraction = %.3f", a.BranchFraction())
	}
	if a.TakenFraction() <= 0.05 || a.TakenFraction() >= 0.95 {
		t.Errorf("taken fraction = %.3f", a.TakenFraction())
	}
	if a.Sites == 0 || a.BiasedSites == 0 || a.BiasedDynShare <= 0 {
		t.Errorf("site stats = %+v", a)
	}
	if a.MaxCallDepth < 1 || a.MaxCallDepth > 200 {
		t.Errorf("depth = %d", a.MaxCallDepth)
	}
	// Histogram sums to block count.
	var sum uint64
	for _, c := range a.BlockSizeHist {
		sum += c
	}
	if sum != a.Blocks {
		t.Errorf("hist sum %d != blocks %d", sum, a.Blocks)
	}
	// The report mentions the headline stats.
	s := a.String()
	for _, want := range []string{"blocks", "biased", "calls"} {
		if !strings.Contains(s, want) {
			t.Errorf("report missing %q:\n%s", want, s)
		}
	}
}

func TestAnalyzeZeroSafe(t *testing.T) {
	var a Analysis
	if a.MeanBlockSize() != 0 || a.BranchFraction() != 0 || a.TakenFraction() != 0 {
		t.Error("zero analysis not safe")
	}
}

// TestSuiteRemainsStronglyBiased verifies the paper's premise holds across
// the whole suite: on average, well over half the dynamic conditional
// branches come from strongly biased sites.
func TestSuiteRemainsStronglyBiased(t *testing.T) {
	var sum float64
	for _, prof := range Profiles() {
		a := Analyze(prof.MustGenerate(), 150_000)
		sum += a.BiasedDynShare
	}
	if avg := sum / 15; avg < 0.5 {
		t.Errorf("suite biased dynamic share = %.2f, want >= 0.5", avg)
	}
}
