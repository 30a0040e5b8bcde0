package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// NilSafe enforces the nil-receiver contract on types annotated
// //tc:nilsafe (the obs.Bus / journal.Writer pattern: a nil
// pointer is a valid, permanently-disabled instance):
//
//   - every method must use a pointer receiver (a value receiver derefs
//     the nil pointer at the call site);
//   - a method that touches receiver fields must nil-guard the receiver
//     first;
//   - no value of the pointer type may be boxed into an interface — the
//     interface would be non-nil even when the pointer inside it is nil,
//     defeating the callers' nil checks.
func NilSafe() *Analyzer {
	a := &Analyzer{
		Name: "nilsafe",
		Doc:  "//tc:nilsafe types: guarded methods, pointer receivers, no interface boxing",
	}
	a.Run = func(pass *Pass) {
		for _, file := range pass.Pkg.Files {
			for _, decl := range file.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok {
					checkNilSafeMethod(pass, fd)
				}
			}
			checkNilSafeBoxing(pass, file)
			checkNilSafeReturns(pass, file)
		}
	}
	return a
}

// checkNilSafeMethod verifies receiver discipline for methods on marked
// types declared in this package.
func checkNilSafeMethod(pass *Pass, fd *ast.FuncDecl) {
	recvIdent, pointer := recvTypeName(fd)
	if recvIdent == nil {
		return
	}
	if !pass.Facts.NilSafe[pass.Pkg.ImportPath+"."+recvIdent.Name] {
		return
	}
	if !pointer {
		pass.Reportf(fd.Pos(), "method %s on nil-safe type %s must use a pointer receiver (a nil caller derefs here)",
			fd.Name.Name, recvIdent.Name)
		return
	}
	if fd.Body == nil || len(fd.Recv.List[0].Names) == 0 {
		return // unnamed receiver: the body cannot touch fields
	}
	recvName := fd.Recv.List[0].Names[0]
	if recvName.Name == "_" {
		return
	}
	info := pass.Pkg.Info
	recvObj := info.Defs[recvName]

	isRecv := func(e ast.Expr) bool {
		id, ok := unparen(e).(*ast.Ident)
		if !ok {
			return false
		}
		if recvObj != nil {
			return info.ObjectOf(id) == recvObj
		}
		return id.Name == recvName.Name // degraded fallback
	}

	// Earliest nil comparison of the receiver.
	guardPos := token.NoPos
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		be, ok := n.(*ast.BinaryExpr)
		if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
			return true
		}
		if (isRecv(be.X) && isNilIdent(be.Y)) || (isRecv(be.Y) && isNilIdent(be.X)) {
			if !guardPos.IsValid() || be.Pos() < guardPos {
				guardPos = be.Pos()
			}
		}
		return true
	})

	// Earliest receiver field access (selection resolving to a field, or
	// — degraded — any selector on the receiver).
	fieldPos := token.NoPos
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok || !isRecv(sel.X) {
			return true
		}
		if s, ok := info.Selections[sel]; ok && s.Kind() != types.FieldVal {
			return true // method value/call on the receiver: checked at its own decl
		}
		if !fieldPos.IsValid() || sel.Pos() < fieldPos {
			fieldPos = sel.Pos()
		}
		return true
	})

	if fieldPos.IsValid() && (!guardPos.IsValid() || guardPos > fieldPos) {
		pass.Reportf(fieldPos, "receiver field access before nil guard in method %s on nil-safe type %s; start with `if %s == nil`",
			fd.Name.Name, recvIdent.Name, recvName.Name)
	}
}

// isNilIdent reports whether the expression is the predeclared nil.
func isNilIdent(e ast.Expr) bool {
	id, ok := unparen(e).(*ast.Ident)
	return ok && id.Name == "nil"
}

// markedNilSafe returns the qualified name of t's pointee when t is a
// pointer to a //tc:nilsafe type, else "".
func markedNilSafe(pass *Pass, t types.Type) string {
	if t == nil {
		return ""
	}
	name := qualifiedName(namedPointee(t))
	if name != "" && pass.Facts.NilSafe[name] {
		return name
	}
	return ""
}

// reportNilSafeBox records one boxing violation.
func reportNilSafeBox(pass *Pass, pos token.Pos, name string) {
	pass.Reportf(pos, "storing *%s in an interface defeats its nil-receiver contract (interface becomes non-nil)", name)
}

// checkNilSafeBoxing flags conversions of pointers-to-marked-types into
// interfaces anywhere in the file (any package, since the marked type may
// be imported).
func checkNilSafeBoxing(pass *Pass, file *ast.File) {
	info := pass.Pkg.Info
	marked := func(t types.Type) string { return markedNilSafe(pass, t) }
	reportBox := func(pos token.Pos, name string) { reportNilSafeBox(pass, pos, name) }
	ast.Inspect(file, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				if i >= len(n.Rhs) {
					break
				}
				src := info.TypeOf(n.Rhs[i])
				if name := marked(src); name != "" && boxesInterface(info.TypeOf(lhs), src) {
					reportBox(n.Rhs[i].Pos(), name)
				}
			}
		case *ast.ValueSpec:
			if n.Type == nil {
				break
			}
			dst := info.TypeOf(n.Type)
			for _, v := range n.Values {
				src := info.TypeOf(v)
				if name := marked(src); name != "" && boxesInterface(dst, src) {
					reportBox(v.Pos(), name)
				}
			}
		case *ast.CallExpr:
			if tv, ok := info.Types[n.Fun]; ok && tv.IsType() {
				if len(n.Args) == 1 {
					src := info.TypeOf(n.Args[0])
					if name := marked(src); name != "" && boxesInterface(tv.Type, src) {
						reportBox(n.Pos(), name)
					}
				}
				return true
			}
			t := info.TypeOf(n.Fun)
			if t == nil {
				return true
			}
			sig, ok := t.Underlying().(*types.Signature)
			if !ok {
				return true
			}
			params := sig.Params()
			for i, arg := range n.Args {
				var pt types.Type
				switch {
				case sig.Variadic() && i >= params.Len()-1:
					if n.Ellipsis.IsValid() {
						continue
					}
					if sl, ok := params.At(params.Len() - 1).Type().(*types.Slice); ok {
						pt = sl.Elem()
					}
				case i < params.Len():
					pt = params.At(i).Type()
				}
				src := info.TypeOf(arg)
				if name := marked(src); name != "" && boxesInterface(pt, src) {
					reportBox(arg.Pos(), name)
				}
			}
		case *ast.CompositeLit:
			t := info.TypeOf(n)
			if t == nil {
				break
			}
			var elem types.Type
			switch u := t.Underlying().(type) {
			case *types.Slice:
				elem = u.Elem()
			case *types.Array:
				elem = u.Elem()
			case *types.Map:
				elem = u.Elem()
			}
			if elem == nil || !isInterface(elem) {
				break
			}
			for _, el := range n.Elts {
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					el = kv.Value
				}
				src := info.TypeOf(el)
				if name := marked(src); name != "" && boxesInterface(elem, src) {
					reportBox(el.Pos(), name)
				}
			}
		}
		return true
	})
}

// checkNilSafeReturns flags returning a pointer-to-marked-type through an
// interface-typed result, the remaining boxing channel checkNilSafeBoxing
// does not see. Function literals are walked against their own result
// types.
func checkNilSafeReturns(pass *Pass, file *ast.File) {
	info := pass.Pkg.Info
	var walk func(body ast.Node, results *types.Tuple)
	walk = func(body ast.Node, results *types.Tuple) {
		ast.Inspect(body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				if sig, ok := info.TypeOf(n).(*types.Signature); ok && sig != nil {
					walk(n.Body, sig.Results())
				}
				return false
			case *ast.ReturnStmt:
				if results == nil || len(n.Results) != results.Len() {
					return true // bare return, or multi-value call: nothing to match
				}
				for i, e := range n.Results {
					src := info.TypeOf(e)
					if name := markedNilSafe(pass, src); name != "" && boxesInterface(results.At(i).Type(), src) {
						reportNilSafeBox(pass, e.Pos(), name)
					}
				}
			}
			return true
		})
	}
	for _, decl := range file.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		obj, _ := info.Defs[fd.Name].(*types.Func)
		if obj == nil {
			continue
		}
		if sig, ok := obj.Type().(*types.Signature); ok {
			walk(fd.Body, sig.Results())
		}
	}
}
