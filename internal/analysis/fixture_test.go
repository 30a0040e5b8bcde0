package analysis

import (
	"bytes"
	"flag"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files from current analyzer output")

// repoRoot is the module root, two levels above this package.
func repoRoot(t *testing.T) string {
	t.Helper()
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatalf("resolving repo root: %v", err)
	}
	return root
}

// The loader shells out to `go list -export ./...`, so tests share one.
var (
	loaderOnce sync.Once
	sharedL    *Loader
	sharedErr  error
)

func fixtureLoader(t *testing.T) *Loader {
	t.Helper()
	loaderOnce.Do(func() {
		root, err := filepath.Abs("../..")
		if err != nil {
			sharedErr = err
			return
		}
		sharedL, _, sharedErr = NewLoader(root, "./...")
	})
	if sharedErr != nil {
		t.Fatalf("building fixture loader: %v", sharedErr)
	}
	return sharedL
}

// loadFixture type-checks one testdata package (rel is the path below
// testdata/src, e.g. "determinism/sim"). Fixture packages are invisible
// to go list, so they are checked directly by directory.
func loadFixture(t *testing.T, rel string) *Package {
	t.Helper()
	l := fixtureLoader(t)
	dir, err := filepath.Abs(filepath.Join("testdata", "src", filepath.FromSlash(rel)))
	if err != nil {
		t.Fatalf("resolving fixture dir: %v", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("reading fixture dir: %v", err)
	}
	var goFiles []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			goFiles = append(goFiles, e.Name())
		}
	}
	sort.Strings(goFiles)
	importPath := path.Join("tracecache/internal/analysis/testdata/src", rel)
	return l.Check(importPath, dir, goFiles)
}

// analyzeFixture runs the full analyzer set over one fixture package,
// with diagnostics relative to the repo root.
func analyzeFixture(t *testing.T, rel string) (*Package, *Result) {
	t.Helper()
	pkg := loadFixture(t, rel)
	return pkg, Analyze(repoRoot(t), []*Package{pkg}, Analyzers())
}

func TestFixtureGoldens(t *testing.T) {
	cases := []struct {
		analyzer string
		fixture  string
		// suppressed is the number of ignore-directive hits the fixture
		// demonstrates.
		suppressed int
	}{
		{"determinism", "determinism/sim", 2},
		{"hotalloc", "hotalloc/hot", 2},
		{"nilsafe", "nilsafe/obsbus", 0},
		{"nopanic", "nopanic/config", 1},
	}
	for _, tc := range cases {
		t.Run(tc.analyzer, func(t *testing.T) {
			pkg, res := analyzeFixture(t, tc.fixture)
			if pkg.Degraded {
				t.Fatalf("fixture %s degraded: %v", tc.fixture, pkg.LoadDiags)
			}
			var buf bytes.Buffer
			res.Render(&buf)

			golden := filepath.Join("testdata", "golden", tc.analyzer+".txt")
			if *update {
				if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("reading golden (run with -update to regenerate): %v", err)
			}
			if got := buf.String(); got != string(want) {
				t.Errorf("diagnostics mismatch for %s\n--- got ---\n%s--- want ---\n%s", tc.fixture, got, want)
			}
			if res.Counts[tc.analyzer] == 0 {
				t.Errorf("fixture %s tripped no %s diagnostics", tc.fixture, tc.analyzer)
			}
			if res.Suppressed != tc.suppressed {
				t.Errorf("fixture %s suppressed %d diagnostics, want %d", tc.fixture, res.Suppressed, tc.suppressed)
			}
		})
	}
}
