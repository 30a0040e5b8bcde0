package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// resultAffectingPkgs are the internal packages whose behavior reaches
// simulation results: anything nondeterministic here breaks the
// byte-identical-output-at-any--j guarantee.
var resultAffectingPkgs = map[string]bool{
	"sim": true, "engine": true, "core": true, "fetch": true, "bpred": true,
	"cache": true, "exec": true, "experiments": true, "stats": true, "workload": true,
	"trace": true, "sampling": true, "resultstore": true, "program": true,
}

// Determinism flags nondeterminism sources in result-affecting packages:
// map iteration whose body writes outside the loop (or calls out) with no
// sort after it, wall-clock reads (time.Now/Since), and uses of math/rand
// package-level functions, which draw from the shared global source.
func Determinism() *Analyzer {
	a := &Analyzer{
		Name: "determinism",
		Doc:  "map-iteration order, wall clock and global rand must not reach simulation results",
	}
	a.Run = func(pass *Pass) {
		if !internalPkg(pass.Pkg.ImportPath, resultAffectingPkgs) {
			return
		}
		info := pass.Pkg.Info
		for _, file := range pass.Pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				fd, ok := n.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					return true
				}
				checkFuncDeterminism(pass, fd)
				return true
			})
			// Wall-clock and global-rand checks apply everywhere in the
			// file, including package-level variable initializers.
			ast.Inspect(file, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				checkClockAndRand(pass, info, sel)
				return true
			})
		}
	}
	return a
}

// checkFuncDeterminism flags map ranges inside one function. A range is
// exempt when the function lexically contains a sort call after the loop
// ends: the collect-keys-then-sort idiom.
func checkFuncDeterminism(pass *Pass, fd *ast.FuncDecl) {
	info := pass.Pkg.Info
	var sortCalls []token.Pos
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if f := calleeFunc(info, call); f != nil && f.Pkg() != nil && f.Pkg().Path() == "sort" {
			sortCalls = append(sortCalls, call.Pos())
		} else if sel, ok := unparen(call.Fun).(*ast.SelectorExpr); ok {
			// Degraded fallback: a selector on an identifier named sort.
			if id, ok := sel.X.(*ast.Ident); ok && id.Name == "sort" && info.Uses[sel.Sel] == nil {
				sortCalls = append(sortCalls, call.Pos())
			}
		}
		return true
	})
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		rs, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		t := info.TypeOf(rs.X)
		if t == nil {
			return true // degraded: cannot tell maps from slices
		}
		if _, isMap := t.Underlying().(*types.Map); !isMap {
			return true
		}
		if !rangeBodyEmits(info, rs) {
			return true
		}
		for _, p := range sortCalls {
			if p >= rs.End() {
				return true // collected then sorted: deterministic
			}
		}
		pass.Reportf(rs.Pos(), "map iteration writes to state outside the loop with no sort after it; iterate sorted keys (order reaches simulation results)")
		return true
	})
}

// rangeBodyEmits reports whether the loop body lets iteration order
// escape: it writes to a variable declared outside the range statement,
// calls a non-builtin function, or sends/returns.
func rangeBodyEmits(info *types.Info, rs *ast.RangeStmt) bool {
	local := func(id *ast.Ident) bool {
		if id == nil {
			return false
		}
		if id.Name == "_" {
			return true
		}
		obj := info.ObjectOf(id)
		return obj != nil && obj.Pos() >= rs.Pos() && obj.Pos() < rs.End()
	}
	emits := false
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		if emits {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			switch {
			case isBuiltin(info, n, "len"), isBuiltin(info, n, "cap"),
				isBuiltin(info, n, "min"), isBuiltin(info, n, "max"):
			default:
				emits = true
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if !local(baseIdent(lhs)) {
					emits = true
				}
			}
		case *ast.IncDecStmt:
			if !local(baseIdent(n.X)) {
				emits = true
			}
		case *ast.SendStmt, *ast.ReturnStmt, *ast.GoStmt, *ast.DeferStmt:
			emits = true
		}
		return !emits
	})
	return emits
}

// checkClockAndRand flags time.Now/time.Since and math/rand global-source
// functions.
func checkClockAndRand(pass *Pass, info *types.Info, sel *ast.SelectorExpr) {
	obj := info.Uses[sel.Sel]
	f, ok := obj.(*types.Func)
	if !ok || f.Pkg() == nil {
		// Degraded fallback: match by package identifier name.
		if obj == nil {
			if id, ok := sel.X.(*ast.Ident); ok {
				if id.Name == "time" && (sel.Sel.Name == "Now" || sel.Sel.Name == "Since") {
					pass.Reportf(sel.Pos(), "wall-clock read (time.%s) in a result-affecting package", sel.Sel.Name)
				}
			}
		}
		return
	}
	if sig, ok := f.Type().(*types.Signature); ok && sig.Recv() != nil {
		return // methods (e.g. (*rand.Rand).Intn on a seeded source) are fine
	}
	switch f.Pkg().Path() {
	case "time":
		if f.Name() == "Now" || f.Name() == "Since" {
			pass.Reportf(sel.Pos(), "wall-clock read (time.%s) in a result-affecting package", f.Name())
		}
	case "math/rand", "math/rand/v2":
		switch f.Name() {
		case "New", "NewSource", "NewPCG", "NewChaCha8", "NewZipf":
			// Constructors produce a locally-seeded source: deterministic.
		default:
			pass.Reportf(sel.Pos(), "math/rand global source (rand.%s) in a result-affecting package; use a seeded *rand.Rand", f.Name())
		}
	}
}
