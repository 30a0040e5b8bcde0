package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
)

// HotAlloc flags per-call allocation sources inside functions annotated
// //tc:hotpath: address-taken or slice/map composite literals, appends
// that do not reuse a preallocated buffer, closures, fmt calls, and
// implicit interface conversions (boxing). These are the constructs the
// PR 3 allocation diet removed from the cycle loop; the annotation locks
// the diet in. It also flags the per-call copy a large struct literal
// costs: a non-empty struct literal over literalCopyLimit bytes that is
// stored anywhere but a plain variable (*p = T{...}, s[i] = T{...},
// x.f = T{...}) or passed as an append element is built in a temporary
// and block-copied into place; a reused slot is instead filled by
// assigning every field in place, which a poisoned-slot test covers.
// And it flags a by-value receiver, parameter or result whose type gc
// cannot keep in registers (see unregisterable): such a value is spilled
// field by field and then reloaded with one wide load, which the CPU
// cannot forward from the narrower stores, so the load stalls.
func HotAlloc() *Analyzer {
	a := &Analyzer{
		Name: "hotalloc",
		Doc:  "//tc:hotpath functions must not allocate per call",
	}
	a.Run = func(pass *Pass) {
		for _, file := range pass.Pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil || !hasDirective(fd.Doc, dirHotPath) {
					continue
				}
				checkHotFunc(pass, fd)
			}
		}
	}
	return a
}

// checkHotFunc inspects one annotated function.
func checkHotFunc(pass *Pass, fd *ast.FuncDecl) {
	info := pass.Pkg.Info
	checkByValue(pass, fd)

	// Appends that reuse a persistent buffer are allowed: x = append(x, ...)
	// grows in place, and append(buf[:0], ...) explicitly reslices existing
	// backing storage whatever the result is bound to. Everything else may
	// grow a fresh backing array per call.
	allowedAppend := make(map[*ast.CallExpr]bool)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return true
		}
		call, ok := unparen(as.Rhs[0]).(*ast.CallExpr)
		if !ok || !isBuiltin(info, call, "append") || len(call.Args) == 0 {
			return true
		}
		arg0 := unparen(call.Args[0])
		if _, ok := arg0.(*ast.SliceExpr); ok {
			// append(buf[:0], ...): reslicing names the storage being reused.
			allowedAppend[call] = true
		} else if types.ExprString(arg0) == types.ExprString(as.Lhs[0]) {
			allowedAppend[call] = true
		}
		return true
	})

	var funcResults *ast.FieldList
	if fd.Type != nil {
		funcResults = fd.Type.Results
	}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			pass.Reportf(n.Pos(), "closure in hot path allocates; hoist it or pass state explicitly")
			return false // constructs inside the (already-reported) closure are its problem
		case *ast.UnaryExpr:
			if n.Op.String() == "&" {
				if _, ok := unparen(n.X).(*ast.CompositeLit); ok {
					pass.Reportf(n.Pos(), "address of composite literal escapes and allocates in hot path")
				}
			}
		case *ast.CompositeLit:
			t := info.TypeOf(n)
			if t != nil {
				switch t.Underlying().(type) {
				case *types.Slice:
					pass.Reportf(n.Pos(), "slice literal allocates per call in hot path; reuse a scratch buffer")
				case *types.Map:
					pass.Reportf(n.Pos(), "map literal allocates per call in hot path; reuse a persistent map")
				}
			} else {
				// Degraded: fall back to the syntax.
				switch tt := n.Type.(type) {
				case *ast.ArrayType:
					if tt.Len == nil {
						pass.Reportf(n.Pos(), "slice literal allocates per call in hot path; reuse a scratch buffer")
					}
				case *ast.MapType:
					pass.Reportf(n.Pos(), "map literal allocates per call in hot path; reuse a persistent map")
				}
			}
		case *ast.CallExpr:
			if isBuiltin(info, n, "append") {
				if !allowedAppend[n] {
					pass.Reportf(n.Pos(), "append does not reuse a preallocated buffer in hot path; use x = append(x[:0], ...) on a scratch slice")
				}
				if len(n.Args) > 1 && !n.Ellipsis.IsValid() {
					for _, arg := range n.Args[1:] {
						if lit, size := copiedStructLit(info, arg); lit != nil {
							name := types.ExprString(lit.Type)
							pass.Reportf(lit.Pos(), "append element %s literal (%d bytes) is built in a temporary and block-copied in hot path; %s", name, size, fillAdvice)
						}
					}
				}
			}
			if f := calleeFunc(info, n); f != nil && f.Pkg() != nil && f.Pkg().Path() == "fmt" {
				pass.Reportf(n.Pos(), "fmt.%s allocates (and boxes its operands) in hot path", f.Name())
			} else if sel, ok := unparen(n.Fun).(*ast.SelectorExpr); ok && info.Uses[sel.Sel] == nil {
				if id, ok := sel.X.(*ast.Ident); ok && id.Name == "fmt" {
					pass.Reportf(n.Pos(), "fmt.%s allocates (and boxes its operands) in hot path", sel.Sel.Name)
				}
			}
			checkCallBoxing(pass, n)
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				if i >= len(n.Rhs) {
					break // x, y = f() multi-value: skip
				}
				if boxesInterface(info.TypeOf(lhs), info.TypeOf(n.Rhs[i])) {
					pass.Reportf(n.Rhs[i].Pos(), "assignment boxes %s into an interface in hot path", types.ExprString(n.Rhs[i]))
				}
				if _, plain := unparen(lhs).(*ast.Ident); plain {
					continue
				}
				if lit, size := copiedStructLit(info, n.Rhs[i]); lit != nil {
					name := types.ExprString(lit.Type)
					pass.Reportf(lit.Pos(), "%s literal (%d bytes) is built in a temporary and block-copied in hot path; %s", name, size, fillAdvice)
				}
			}
		case *ast.ValueSpec:
			if n.Type == nil {
				break
			}
			dst := info.TypeOf(n.Type)
			for _, v := range n.Values {
				if boxesInterface(dst, info.TypeOf(v)) {
					pass.Reportf(v.Pos(), "declaration boxes %s into an interface in hot path", types.ExprString(v))
				}
			}
		case *ast.ReturnStmt:
			if funcResults == nil {
				break
			}
			flat := flattenFields(funcResults)
			if len(n.Results) != len(flat) {
				break
			}
			for i, res := range n.Results {
				if boxesInterface(info.TypeOf(flat[i]), info.TypeOf(res)) {
					pass.Reportf(res.Pos(), "return boxes %s into an interface in hot path", types.ExprString(res))
				}
			}
		}
		return true
	})
}

// fillAdvice is the remedy for a block-copied struct literal.
const fillAdvice = "fill a reused slot by assigning every field in place, covered by a poisoned-slot test"

// literalCopyLimit is the size in bytes, under the gc/amd64 layout, above
// which a copied struct literal is reported; fixing the layout keeps the
// findings independent of the host.
const literalCopyLimit = 64

var gcAMD64 = types.SizesFor("gc", "amd64")

// copiedStructLit returns e as a non-empty struct composite literal larger
// than literalCopyLimit, with its size, or nil. Without type information
// (a degraded package) nothing is reported.
func copiedStructLit(info *types.Info, e ast.Expr) (*ast.CompositeLit, int64) {
	lit, ok := unparen(e).(*ast.CompositeLit)
	if !ok || len(lit.Elts) == 0 || lit.Type == nil {
		return nil, 0
	}
	t := info.TypeOf(lit)
	if t == nil {
		return nil, 0
	}
	if _, ok := t.Underlying().(*types.Struct); !ok {
		return nil, 0
	}
	if size := gcAMD64.Sizeof(t); size > literalCopyLimit {
		return lit, size
	}
	return nil, 0
}

// maxRegFields is the most fields a struct gc keeps in registers may have.
const maxRegFields = 4

// regSizeLimit is the largest value, in bytes under gc/amd64, that gc
// keeps in registers: four pointer words.
const regSizeLimit = 32

// checkByValue flags fd's by-value receiver, parameters and results whose
// type gc cannot keep in registers. Without type information (a degraded
// package) nothing is reported.
func checkByValue(pass *Pass, fd *ast.FuncDecl) {
	lists := []struct {
		what string
		fl   *ast.FieldList
	}{{"receiver", fd.Recv}, {"parameter", fd.Type.Params}, {"result", fd.Type.Results}}
	for _, l := range lists {
		if l.fl == nil {
			continue
		}
		for _, f := range l.fl.List {
			t := pass.Pkg.Info.TypeOf(f.Type)
			if t == nil {
				continue
			}
			why := unregisterable(t)
			if why == "" {
				continue
			}
			name := types.ExprString(f.Type)
			pass.Reportf(f.Type.Pos(), "by-value %s of type %s (%s) does not fit in registers and is spilled field by field, then reloaded wide, in hot path; pass a pointer", l.what, name, why)
		}
	}
}

// unregisterable returns why gc cannot keep a value of type t in
// registers, or "" when it can. It mirrors gc's rule: at most
// regSizeLimit bytes, no array of more than one element, no struct of
// more than maxRegFields fields, recursively through fields and elements.
func unregisterable(t types.Type) string {
	if size := gcAMD64.Sizeof(t); size > regSizeLimit {
		return fmt.Sprintf("%d bytes", size)
	}
	switch u := t.Underlying().(type) {
	case *types.Array:
		if u.Len() > 1 {
			return fmt.Sprintf("array of %d", u.Len())
		}
		return unregisterable(u.Elem())
	case *types.Struct:
		if u.NumFields() > maxRegFields {
			return fmt.Sprintf("%d fields", u.NumFields())
		}
		for i := 0; i < u.NumFields(); i++ {
			if why := unregisterable(u.Field(i).Type()); why != "" {
				return "field " + u.Field(i).Name() + ": " + why
			}
		}
	}
	return ""
}

// checkCallBoxing flags call arguments implicitly converted to interface
// parameters, and explicit conversions to interface types.
func checkCallBoxing(pass *Pass, call *ast.CallExpr) {
	info := pass.Pkg.Info
	if isBuiltin(info, call, "panic") {
		return // the boxing happens only on the dead (panicking) path
	}
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		// Explicit conversion I(x).
		if len(call.Args) == 1 && boxesInterface(tv.Type, info.TypeOf(call.Args[0])) {
			pass.Reportf(call.Pos(), "conversion boxes %s into an interface in hot path", types.ExprString(call.Args[0]))
		}
		return
	}
	t := info.TypeOf(call.Fun)
	if t == nil {
		return
	}
	sig, ok := t.Underlying().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // passing a slice through ... does not box
			}
			if sl, ok := params.At(params.Len() - 1).Type().(*types.Slice); ok {
				pt = sl.Elem()
			}
		case i < params.Len():
			pt = params.At(i).Type()
		}
		if boxesInterface(pt, info.TypeOf(arg)) {
			pass.Reportf(arg.Pos(), "argument boxes %s into interface parameter in hot path", types.ExprString(arg))
		}
	}
}

// flattenFields expands a field list into one entry per declared name
// (or per anonymous field).
func flattenFields(fl *ast.FieldList) []ast.Expr {
	var out []ast.Expr
	for _, f := range fl.List {
		n := len(f.Names)
		if n == 0 {
			n = 1
		}
		for i := 0; i < n; i++ {
			out = append(out, f.Type)
		}
	}
	return out
}
