// Package analysis implements tcvet, the repository's project-specific
// static analyzer. It enforces, at compile time, the contracts the
// simulator otherwise relies on convention and runtime checks for:
//
//   - determinism: no map-iteration order or wall-clock/global-rand input
//     may reach simulation results (the guarantee behind byte-identical
//     output at any tcbench -j width);
//   - hotalloc: functions annotated //tc:hotpath must not allocate per
//     call (the guarantee behind the PR 3 allocation diet);
//   - nilsafe: types annotated //tc:nilsafe keep their methods safe on a
//     nil receiver and are never boxed into interfaces;
//   - nopanic: no panic is reachable from the exported entry points of
//     the input-facing packages.
//
// The driver is stdlib-only: packages are discovered with `go list
// -export -deps -json`, parsed with go/parser and type-checked with
// go/types against the compiler's export data, with no dependency on
// golang.org/x/tools. Diagnostics can be suppressed one line or one
// declaration at a time with
//
//	//tcvet:ignore <analyzer> <reason>
//
// where the reason is mandatory and recorded.
package analysis

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/token"
	"io"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// Diagnostic is one reported contract violation.
type Diagnostic struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"message"`
}

// String renders the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.File, d.Line, d.Col, d.Analyzer, d.Message)
}

// Analyzer is one named pass over a package.
type Analyzer struct {
	Name string
	Doc  string
	// Run inspects one package.
	Run func(*Pass)
}

// Pass carries one package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package
	Facts    *Facts
	report   func(Diagnostic)
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Pkg.Fset.Position(pos)
	p.report(Diagnostic{
		Analyzer: p.Analyzer.Name,
		File:     position.Filename,
		Line:     position.Line,
		Col:      position.Column,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Facts is the whole-run context shared by every pass: project-wide
// annotations collected from syntax before any analyzer runs.
type Facts struct {
	// NilSafe holds the fully-qualified names ("importpath.TypeName") of
	// types annotated //tc:nilsafe.
	NilSafe map[string]bool
}

// collectFacts scans the parsed packages for project annotations.
func collectFacts(pkgs []*Package) *Facts {
	f := &Facts{NilSafe: make(map[string]bool)}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				gd, ok := decl.(*ast.GenDecl)
				if !ok || gd.Tok != token.TYPE {
					continue
				}
				for _, spec := range gd.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					if hasDirective(gd.Doc, dirNilSafe) || hasDirective(ts.Doc, dirNilSafe) || hasDirective(ts.Comment, dirNilSafe) {
						f.NilSafe[pkg.ImportPath+"."+ts.Name.Name] = true
					}
				}
			}
		}
	}
	return f
}

// Project annotation directives.
const (
	dirNilSafe = "//tc:nilsafe"
	dirHotPath = "//tc:hotpath"
	dirIgnore  = "//tcvet:ignore"
)

// hasDirective reports whether the comment group contains the directive
// as a whole comment line (optionally followed by explanatory text).
func hasDirective(cg *ast.CommentGroup, dir string) bool {
	if cg == nil {
		return false
	}
	for _, c := range cg.List {
		if c.Text == dir || strings.HasPrefix(c.Text, dir+" ") {
			return true
		}
	}
	return false
}

// ignoreRange is one resolved //tcvet:ignore directive: it suppresses
// diagnostics of one analyzer on a file line range.
type ignoreRange struct {
	file     string
	analyzer string
	from, to int // inclusive line range
}

// collectIgnores resolves every //tcvet:ignore directive in the package.
// Scoping: a directive in the doc comment of a top-level declaration
// covers the whole declaration; a trailing comment covers its own line; a
// standalone comment line covers the line directly below it. Malformed
// directives (unknown analyzer, missing reason) are themselves reported
// as "tcvet" diagnostics.
func collectIgnores(pkg *Package, known map[string]bool, report func(Diagnostic)) []ignoreRange {
	var out []ignoreRange
	for _, file := range pkg.Files {
		fname := pkg.Fset.Position(file.Pos()).Filename
		src := pkg.Sources[fname]
		// Map each top-level declaration's doc comment to its span.
		var docSpans []docSpan
		for _, decl := range file.Decls {
			var doc *ast.CommentGroup
			switch d := decl.(type) {
			case *ast.FuncDecl:
				doc = d.Doc
			case *ast.GenDecl:
				doc = d.Doc
			}
			if doc == nil {
				continue
			}
			docSpans = append(docSpans, docSpan{
				docPos: doc.Pos(), docEnd: doc.End(),
				from: pkg.Fset.Position(decl.Pos()).Line,
				to:   pkg.Fset.Position(decl.End()).Line,
			})
		}
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				if c.Text != dirIgnore && !strings.HasPrefix(c.Text, dirIgnore+" ") {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				fields := strings.Fields(strings.TrimPrefix(c.Text, dirIgnore))
				if len(fields) == 0 || !known[fields[0]] {
					report(Diagnostic{Analyzer: "tcvet", File: fname, Line: pos.Line, Col: pos.Column,
						Message: fmt.Sprintf("malformed ignore directive: want %q with a known analyzer", dirIgnore+" <analyzer> <reason>")})
					continue
				}
				if len(fields) < 2 {
					report(Diagnostic{Analyzer: "tcvet", File: fname, Line: pos.Line, Col: pos.Column,
						Message: fmt.Sprintf("ignore directive for %q needs a reason", fields[0])})
					continue
				}
				ir := ignoreRange{file: fname, analyzer: fields[0], from: pos.Line, to: pos.Line}
				switch s := inDocSpan(docSpans, c.Pos()); {
				case s != nil:
					ir.from, ir.to = s.from, s.to
				case leadingCode(src, pos):
					// Trailing comment: covers its own line.
				default:
					// Standalone comment line: covers the next line.
					ir.from, ir.to = pos.Line+1, pos.Line+1
				}
				out = append(out, ir)
			}
		}
	}
	return out
}

// docSpan is the line span of one top-level declaration plus the
// position range of its doc comment.
type docSpan struct {
	docPos, docEnd token.Pos
	from, to       int
}

// inDocSpan returns the declaration span whose doc comment contains pos.
func inDocSpan(spans []docSpan, pos token.Pos) *docSpan {
	for i := range spans {
		if pos >= spans[i].docPos && pos < spans[i].docEnd {
			return &spans[i]
		}
	}
	return nil
}

// leadingCode reports whether the source line holding pos has non-space
// content before the column where the comment starts (i.e. the comment
// trails code).
func leadingCode(src []byte, pos token.Position) bool {
	if src == nil {
		return false
	}
	// Walk back from the comment's byte offset to the line start.
	for i := pos.Offset - 1; i >= 0; i-- {
		switch src[i] {
		case '\n':
			return false
		case ' ', '\t', '\r':
		default:
			return true
		}
	}
	return false
}

// Result is the outcome of one tcvet run.
type Result struct {
	// Packages is the number of packages analyzed.
	Packages int `json:"packages"`
	// Diagnostics are the surviving (unsuppressed) findings, sorted by
	// file, line, column, analyzer, message.
	Diagnostics []Diagnostic `json:"diagnostics"`
	// Suppressed counts diagnostics dropped by ignore directives.
	Suppressed int `json:"suppressed"`
	// Counts maps analyzer name to surviving diagnostic count (zero
	// entries included, so the summary always lists every analyzer).
	Counts map[string]int `json:"counts"`
	// Duration is the analysis wall time; excluded from JSON so -json
	// output is byte-stable across runs.
	Duration time.Duration `json:"-"`
}

// ExitCode is the process exit status the result calls for: 1 when any
// diagnostic survived, 0 otherwise.
func (r *Result) ExitCode() int {
	if len(r.Diagnostics) > 0 {
		return 1
	}
	return 0
}

// Render writes the diagnostics one per line in file:line:col form.
func (r *Result) Render(w io.Writer) {
	for _, d := range r.Diagnostics {
		fmt.Fprintln(w, d.String())
	}
}

// RenderJSON writes the result as deterministic, indented JSON.
func (r *Result) RenderJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// Summary renders the one-line run report for stderr: per-analyzer
// counts, suppression count and wall time.
func (r *Result) Summary() string {
	names := make([]string, 0, len(r.Counts))
	for n := range r.Counts {
		names = append(names, n)
	}
	sort.Strings(names)
	parts := make([]string, 0, len(names))
	for _, n := range names {
		parts = append(parts, fmt.Sprintf("%s %d", n, r.Counts[n]))
	}
	return fmt.Sprintf("tcvet: %d packages, %d diagnostics (%s; %d suppressed) in %s",
		r.Packages, len(r.Diagnostics), strings.Join(parts, ", "), r.Suppressed,
		r.Duration.Round(time.Millisecond))
}

// Analyze runs the analyzers over the loaded packages, applies ignore
// directives, and returns the sorted result. File paths in diagnostics
// are made relative to dir when possible.
func Analyze(dir string, pkgs []*Package, analyzers []*Analyzer) *Result {
	start := time.Now()
	known := make(map[string]bool, len(analyzers))
	res := &Result{Counts: make(map[string]int, len(analyzers))}
	for _, a := range analyzers {
		known[a.Name] = true
		res.Counts[a.Name] = 0
	}

	var raw []Diagnostic
	report := func(d Diagnostic) { raw = append(raw, d) }

	var ignores []ignoreRange
	for _, pkg := range pkgs {
		ignores = append(ignores, collectIgnores(pkg, known, report)...)
		raw = append(raw, pkg.LoadDiags...)
	}
	facts := collectFacts(pkgs)
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			a.Run(&Pass{Analyzer: a, Pkg: pkg, Facts: facts, report: report})
		}
	}

	for _, d := range raw {
		if suppressed(ignores, d) {
			res.Suppressed++
			continue
		}
		if rel, err := filepath.Rel(dir, d.File); err == nil && !strings.HasPrefix(rel, "..") {
			d.File = filepath.ToSlash(rel)
		}
		res.Diagnostics = append(res.Diagnostics, d)
		res.Counts[d.Analyzer]++
	}
	sort.Slice(res.Diagnostics, func(i, j int) bool {
		a, b := res.Diagnostics[i], res.Diagnostics[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	res.Packages = len(pkgs)
	res.Duration = time.Since(start)
	return res
}

// suppressed reports whether an ignore directive covers the diagnostic.
func suppressed(ignores []ignoreRange, d Diagnostic) bool {
	for _, ir := range ignores {
		if ir.analyzer == d.Analyzer && ir.file == d.File && ir.from <= d.Line && d.Line <= ir.to {
			return true
		}
	}
	return false
}
