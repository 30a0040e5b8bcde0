package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// noPanicPkgs are the input-facing packages whose exported API must
// return errors instead of panicking: user-supplied configs, cache and
// trace-cache geometries, experiment selections, journals and stored
// results all flow in through them.
var noPanicPkgs = map[string]bool{
	"config": true, "cache": true, "core": true,
	"experiments": true, "journal": true, "trace": true,
	"sampling": true, "resultstore": true,
}

// NoPanic flags panic calls reachable from exported entry points of the
// input-facing packages, via the static intra-package call graph.
// Dynamic calls (interface methods, function values) are not traced, so
// the check is an under-approximation; direct panics in exported API and
// their helper chains are exactly what it catches. Invariant panics that
// cannot fire on user input need an explicit
// //tcvet:ignore nopanic <reason>.
func NoPanic() *Analyzer {
	a := &Analyzer{
		Name: "nopanic",
		Doc:  "no panic reachable from exported entry points of input-facing packages",
	}
	a.Run = func(pass *Pass) {
		if !internalPkg(pass.Pkg.ImportPath, noPanicPkgs) {
			return
		}
		checkNoPanic(pass)
	}
	return a
}

// fnode is one declared function in the package call graph.
type fnode struct {
	decl   *ast.FuncDecl
	obj    *types.Func
	panics []token.Pos
	calls  []*types.Func
	root   string // exported entry point it is reachable from, "" if none
}

func checkNoPanic(pass *Pass) {
	info := pass.Pkg.Info
	nodes := make(map[*types.Func]*fnode)
	var order []*fnode

	for _, file := range pass.Pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, _ := info.Defs[fd.Name].(*types.Func)
			n := &fnode{decl: fd, obj: obj}
			if obj != nil {
				nodes[obj] = n
			}
			order = append(order, n)
			ast.Inspect(fd.Body, func(x ast.Node) bool {
				call, ok := x.(*ast.CallExpr)
				if !ok {
					return true
				}
				if isBuiltin(info, call, "panic") {
					n.panics = append(n.panics, call.Pos())
					return true
				}
				if f := calleeFunc(info, call); f != nil && f.Pkg() != nil && pass.Pkg.Types != nil && f.Pkg() == pass.Pkg.Types {
					n.calls = append(n.calls, f)
				}
				return true
			})
		}
	}

	// Seed the worklist with the exported entry points: exported
	// functions, and exported methods on exported types.
	var work []*fnode
	for _, n := range order {
		fd := n.decl
		if !fd.Name.IsExported() {
			continue
		}
		if recv, _ := recvTypeName(fd); recv != nil && !recv.IsExported() {
			continue
		}
		n.root = fd.Name.Name
		work = append(work, n)
	}
	// Propagate reachability breadth-first, keeping the first root found
	// (deterministic: seeded in declaration order).
	for len(work) > 0 {
		n := work[0]
		work = work[1:]
		for _, callee := range n.calls {
			cn := nodes[callee]
			if cn == nil || cn.root != "" {
				continue
			}
			cn.root = n.root
			work = append(work, cn)
		}
	}

	var diags []struct {
		pos token.Pos
		n   *fnode
	}
	for _, n := range order {
		if n.root == "" {
			continue
		}
		for _, p := range n.panics {
			diags = append(diags, struct {
				pos token.Pos
				n   *fnode
			}{p, n})
		}
	}
	sort.Slice(diags, func(i, j int) bool { return diags[i].pos < diags[j].pos })
	for _, d := range diags {
		via := ""
		if d.n.decl.Name.Name != d.n.root {
			via = " via " + d.n.decl.Name.Name
		}
		pass.Reportf(d.pos, "panic reachable from exported %s%s; return an error, or annotate the invariant with %q",
			d.n.root, via, dirIgnore+" nopanic <reason>")
	}
}
