package analysis

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestDegradedTypeError: a package with a type error must not abort the
// run — it degrades to syntax-only analysis, reports the type error as a
// "load" diagnostic, still runs the syntax-level checks, and makes the
// run exit nonzero.
func TestDegradedTypeError(t *testing.T) {
	pkg, res := analyzeFixture(t, "broken/sim")
	if !pkg.Degraded {
		t.Fatal("type-error fixture not marked Degraded")
	}
	if res.ExitCode() != 1 {
		t.Fatalf("ExitCode = %d, want 1", res.ExitCode())
	}
	var haveLoad, haveDeterminism bool
	for _, d := range res.Diagnostics {
		switch d.Analyzer {
		case "load":
			haveLoad = true
			if !strings.Contains(d.Message, "degraded to syntax-only") {
				t.Errorf("load diagnostic does not explain degradation: %q", d.Message)
			}
		case "determinism":
			haveDeterminism = true
			if !strings.Contains(d.Message, "time.Now") {
				t.Errorf("unexpected determinism diagnostic: %q", d.Message)
			}
		}
	}
	if !haveLoad {
		t.Error("no load diagnostic for the type error")
	}
	if !haveDeterminism {
		t.Error("syntax-level determinism check did not run on the degraded package")
	}
}

// TestDegradedParseError: a file that does not parse yields one load
// diagnostic per syntax error and the package still carries the files
// that did parse.
func TestDegradedParseError(t *testing.T) {
	dir := t.TempDir()
	good := "package broken\n\nfunc Fine() int { return 1 }\n"
	bad := "package broken\n\nfunc Unclosed( {\n"
	if err := os.WriteFile(filepath.Join(dir, "good.go"), []byte(good), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "bad.go"), []byte(bad), 0o644); err != nil {
		t.Fatal(err)
	}
	l := fixtureLoader(t)
	pkg := l.Check("example/broken", dir, []string{"bad.go", "good.go"})
	if !pkg.Degraded {
		t.Fatal("parse-error package not marked Degraded")
	}
	var parseDiags int
	for _, d := range pkg.LoadDiags {
		if strings.Contains(d.Message, "parsing:") {
			parseDiags++
			if d.Line == 0 || !strings.HasSuffix(d.File, "bad.go") {
				t.Errorf("parse diagnostic lacks position: %+v", d)
			}
		}
	}
	if parseDiags == 0 {
		t.Error("no parse diagnostics for the syntax error")
	}
	if len(pkg.Files) == 0 {
		t.Error("cleanly-parsing file was dropped from the degraded package")
	}
}

// TestIgnoreScoping pins the three directive scopes: a doc-comment
// directive covers its whole declaration, a trailing directive covers
// its own line, a standalone directive covers the next line.
func TestIgnoreScoping(t *testing.T) {
	known := map[string]bool{"determinism": true, "hotalloc": true}
	report := func(d Diagnostic) { t.Errorf("unexpected directive diagnostic: %s", d) }

	t.Run("declaration", func(t *testing.T) {
		pkg := loadFixture(t, "hotalloc/hot")
		irs := collectIgnores(pkg, known, report)
		if len(irs) != 1 {
			t.Fatalf("got %d ignore ranges, want 1", len(irs))
		}
		ir := irs[0]
		if ir.analyzer != "hotalloc" {
			t.Errorf("analyzer = %q, want hotalloc", ir.analyzer)
		}
		// The doc-comment directive on Boundary must span the whole
		// declaration (several lines), not just the directive line.
		if ir.to-ir.from < 2 {
			t.Errorf("declaration scope covers lines %d-%d, want the full Boundary decl", ir.from, ir.to)
		}
	})

	t.Run("line", func(t *testing.T) {
		pkg := loadFixture(t, "determinism/sim")
		irs := collectIgnores(pkg, known, report)
		if len(irs) != 2 {
			t.Fatalf("got %d ignore ranges, want 2", len(irs))
		}
		for _, ir := range irs {
			if ir.from != ir.to {
				t.Errorf("line-scope directive covers lines %d-%d, want a single line", ir.from, ir.to)
			}
		}
		// The trailing directive suppresses its own line; the standalone
		// one suppresses the line below, so the two ranges must differ in
		// how they relate to the directive text itself. Pin via content:
		src := pkg.Sources[pkg.Fset.Position(pkg.Files[0].Pos()).Filename]
		lines := strings.Split(string(src), "\n")
		for _, ir := range irs {
			line := lines[ir.from-1]
			trailing := strings.Contains(line, dirIgnore)
			if trailing && !strings.Contains(line, "time.Now") {
				t.Errorf("trailing directive suppresses line %d (%q), want the time.Now line", ir.from, line)
			}
			if !trailing && !strings.Contains(line, "range") {
				t.Errorf("standalone directive suppresses line %d (%q), want the range line below it", ir.from, line)
			}
		}
	})

	t.Run("malformed", func(t *testing.T) {
		dir := t.TempDir()
		src := `package scoped

// UnknownAnalyzer has a directive naming no analyzer.
func UnknownAnalyzer() {
	_ = 1 //tcvet:ignore nosuchanalyzer because
}

// MissingReason has a directive with no reason.
func MissingReason() {
	_ = 1 //tcvet:ignore determinism
}
`
		if err := os.WriteFile(filepath.Join(dir, "scoped.go"), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
		l := fixtureLoader(t)
		pkg := l.Check("example/scoped", dir, []string{"scoped.go"})
		var got []Diagnostic
		irs := collectIgnores(pkg, known, func(d Diagnostic) { got = append(got, d) })
		if len(irs) != 0 {
			t.Errorf("malformed directives produced %d ignore ranges, want 0", len(irs))
		}
		if len(got) != 2 {
			t.Fatalf("got %d directive diagnostics, want 2: %v", len(got), got)
		}
		if !strings.Contains(got[0].Message, "known analyzer") {
			t.Errorf("unknown-analyzer message = %q", got[0].Message)
		}
		if !strings.Contains(got[1].Message, "needs a reason") {
			t.Errorf("missing-reason message = %q", got[1].Message)
		}
	})
}

// TestJSONRoundTrip: -json output decodes back to the same result.
func TestJSONRoundTrip(t *testing.T) {
	_, res := analyzeFixture(t, "determinism/sim")
	var buf bytes.Buffer
	if err := res.RenderJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Result
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("decoding -json output: %v", err)
	}
	if back.Packages != res.Packages || back.Suppressed != res.Suppressed {
		t.Errorf("round trip changed counts: %+v vs %+v", back, res)
	}
	if len(back.Diagnostics) != len(res.Diagnostics) {
		t.Fatalf("round trip changed diagnostic count: %d vs %d", len(back.Diagnostics), len(res.Diagnostics))
	}
	for i := range back.Diagnostics {
		if back.Diagnostics[i] != res.Diagnostics[i] {
			t.Errorf("diagnostic %d changed in round trip:\n got %+v\nwant %+v", i, back.Diagnostics[i], res.Diagnostics[i])
		}
	}
	for name, n := range res.Counts {
		if back.Counts[name] != n {
			t.Errorf("count %q changed in round trip: %d vs %d", name, back.Counts[name], n)
		}
	}
}

// TestByteStableOutput: two fully independent load+analyze+render passes
// produce byte-identical text and JSON output (modulo Duration, which is
// excluded from JSON for exactly this reason).
func TestByteStableOutput(t *testing.T) {
	root := repoRoot(t)
	render := func() (string, string) {
		l, _, err := NewLoader(root, "./...")
		if err != nil {
			t.Fatalf("fresh loader: %v", err)
		}
		dir, err := filepath.Abs(filepath.Join("testdata", "src", "determinism", "sim"))
		if err != nil {
			t.Fatal(err)
		}
		pkg := l.Check("tracecache/internal/analysis/testdata/src/determinism/sim", dir, []string{"sim.go"})
		res := Analyze(root, []*Package{pkg}, Analyzers())
		var text, js bytes.Buffer
		res.Render(&text)
		if err := res.RenderJSON(&js); err != nil {
			t.Fatal(err)
		}
		return text.String(), js.String()
	}
	t1, j1 := render()
	t2, j2 := render()
	if t1 != t2 {
		t.Errorf("text output differs across runs:\n--- run 1 ---\n%s--- run 2 ---\n%s", t1, t2)
	}
	if j1 != j2 {
		t.Errorf("JSON output differs across runs:\n--- run 1 ---\n%s--- run 2 ---\n%s", j1, j2)
	}
	if t1 == "" {
		t.Error("fixture produced no output to compare")
	}
}

// TestSummaryShape: the one-line stderr summary names every analyzer
// (zero counts included) and the suppression count.
func TestSummaryShape(t *testing.T) {
	_, res := analyzeFixture(t, "nopanic/config")
	sum := res.Summary()
	for _, a := range Analyzers() {
		if !strings.Contains(sum, a.Name+" ") {
			t.Errorf("summary %q omits analyzer %s", sum, a.Name)
		}
	}
	if !strings.Contains(sum, "suppressed") || !strings.Contains(sum, "packages") {
		t.Errorf("summary %q lacks package/suppression counts", sum)
	}
}
