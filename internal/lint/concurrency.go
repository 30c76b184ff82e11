package lint

import (
	"go/ast"
	"go/types"
)

// Shared type- and AST-resolution helpers for the concurrency-
// discipline checks (locksafe, goroleak, atomicmix, ctxleak) built on
// the internal/lint/cfg layer.

// inspectShallow walks n like ast.Inspect but does not descend into
// function literals: a FuncLit's body executes on its own schedule (a
// goroutine, a callback, a deferred closure), so its statements never
// belong to the enclosing function's flow.
func inspectShallow(n ast.Node, fn func(ast.Node) bool) {
	ast.Inspect(n, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		return fn(n)
	})
}

// funcBodies yields every function body of a file — declarations and
// function literals — each paired with a display name. Literal bodies
// are analyzed as functions in their own right.
type funcBody struct {
	name string
	decl *ast.FuncDecl // nil for literals
	lit  *ast.FuncLit  // nil for declarations
	body *ast.BlockStmt
}

func funcBodies(f *File) []funcBody {
	var out []funcBody
	for _, decl := range f.Ast.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		out = append(out, funcBody{name: funcDisplayName(fd), decl: fd, body: fd.Body})
	}
	ast.Inspect(f.Ast, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			out = append(out, funcBody{name: "func literal", lit: lit, body: lit.Body})
		}
		return true
	})
	return out
}

// syncMethod resolves a call to a method of a sync package type
// (Mutex.Lock, WaitGroup.Add, Cond.Wait, ...) and returns the receiver
// expression, the receiver type name, and the method name.
func syncMethod(info *types.Info, call *ast.CallExpr) (recv ast.Expr, typeName, method string, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return nil, "", "", false
	}
	selection, found := info.Selections[sel]
	if !found {
		return nil, "", "", false
	}
	fn, isFn := selection.Obj().(*types.Func)
	if !isFn || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return nil, "", "", false
	}
	named := derefNamed(selection.Recv())
	if named == nil {
		// The receiver may be a local type embedding the sync type;
		// resolve through the method's own receiver instead.
		sig, isSig := fn.Type().(*types.Signature)
		if !isSig || sig.Recv() == nil {
			return nil, "", "", false
		}
		named = derefNamed(sig.Recv().Type())
		if named == nil {
			return nil, "", "", false
		}
	}
	return sel.X, named.Obj().Name(), fn.Name(), true
}

// syncMethodName resolves just the sync type and method of a call, for
// receivers reached through embedding.
func syncMethodName(info *types.Info, call *ast.CallExpr) (typeName, method string, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	selection, found := info.Selections[sel]
	if !found {
		return "", "", false
	}
	fn, isFn := selection.Obj().(*types.Func)
	if !isFn || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", "", false
	}
	sig, isSig := fn.Type().(*types.Signature)
	if !isSig || sig.Recv() == nil {
		return "", "", false
	}
	named := derefNamed(sig.Recv().Type())
	if named == nil {
		return "", "", false
	}
	return named.Obj().Name(), fn.Name(), true
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

// isChanType reports whether t's underlying type is a channel.
func isChanType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Chan)
	return ok
}

// isNamedSyncType reports whether t (not a pointer) is the named sync
// type sync.<name>.
func isNamedSyncType(t types.Type, name string) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" && obj.Name() == name
}

// isMutexValue reports whether t is a sync.Mutex or sync.RWMutex value
// type (not a pointer to one).
func isMutexValue(t types.Type) bool {
	return isNamedSyncType(t, "Mutex") || isNamedSyncType(t, "RWMutex")
}

// containsMutex reports whether a value of type t embeds a mutex by
// value (directly, or through nested struct/array fields), so copying
// the value copies lock state.
func containsMutex(t types.Type) bool {
	return containsMutexRec(t, make(map[types.Type]bool))
}

func containsMutexRec(t types.Type, seen map[types.Type]bool) bool {
	if t == nil || seen[t] {
		return false
	}
	seen[t] = true
	if isMutexValue(t) {
		return true
	}
	switch u := t.Underlying().(type) {
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if containsMutexRec(u.Field(i).Type(), seen) {
				return true
			}
		}
	case *types.Array:
		return containsMutexRec(u.Elem(), seen)
	}
	return false
}

// selectHasDefault reports whether a select statement carries a
// default clause (and therefore cannot block).
func selectHasDefault(s *ast.SelectStmt) bool {
	for _, cl := range s.Body.List {
		if comm, ok := cl.(*ast.CommClause); ok && comm.Comm == nil {
			return true
		}
	}
	return false
}
