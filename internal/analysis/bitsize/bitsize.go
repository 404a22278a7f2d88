// Package bitsize enforces CONGEST accounting: every concrete type used as
// a message payload must implement the bit-size interface (Bits() int,
// i.e. runtime.BitSized). An unsized payload silently flips the run to
// LOCAL-only accounting, so Result.MaxMsgBits stops vouching for the
// algorithm's bandwidth claim — the exact undercount the paper's CONGEST
// results depend on ruling out.
//
// Checked sites: composite literals of the runtime.Out message struct,
// assignments to an Out's Payload field, the payload argument of the
// Broadcast/BroadcastTo helpers, and the payload of the Broadcast and
// BroadcastTagged methods (runtime.Env, core.StageCtx). Payloads typed as interfaces are skipped (they are
// checked where their concrete values are built).
package bitsize

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis"
)

// Analyzer is the bitsize check.
var Analyzer = &analysis.Analyzer{
	Name: "bitsize",
	Doc: "every concrete CONGEST payload type must implement Bits() int so " +
		"MaxMsgBits accounting cannot silently undercount",
	Run: run,
}

func run(pass *analysis.Pass) error {
	analysis.Inspect(pass, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CompositeLit:
			checkOutLiteral(pass, n)
		case *ast.CallExpr:
			checkBroadcast(pass, n)
		case *ast.AssignStmt:
			checkPayloadAssign(pass, n)
		}
		return true
	})
	return nil
}

// isOutStruct reports whether t is (a pointer to) a named struct "Out" with
// To and Payload fields — the engine's outbound message type, matched
// structurally so fixtures need not import the real runtime package.
func isOutStruct(t types.Type) (*types.Struct, bool) {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Name() != "Out" {
		return nil, false
	}
	st, ok := named.Underlying().(*types.Struct)
	if !ok {
		return nil, false
	}
	hasTo, hasPayload := false, false
	for i := 0; i < st.NumFields(); i++ {
		switch st.Field(i).Name() {
		case "To":
			hasTo = true
		case "Payload":
			hasPayload = true
		}
	}
	if !hasTo || !hasPayload {
		return nil, false
	}
	return st, true
}

func checkOutLiteral(pass *analysis.Pass, lit *ast.CompositeLit) {
	tv, ok := pass.TypesInfo.Types[lit]
	if !ok {
		return
	}
	st, ok := isOutStruct(tv.Type)
	if !ok {
		return
	}
	for i, elt := range lit.Elts {
		if kv, ok := elt.(*ast.KeyValueExpr); ok {
			if key, ok := kv.Key.(*ast.Ident); ok && key.Name == "Payload" {
				checkPayloadExpr(pass, kv.Value)
			}
			continue
		}
		// Positional literal: match the field index.
		if i < st.NumFields() && st.Field(i).Name() == "Payload" {
			checkPayloadExpr(pass, elt)
		}
	}
}

func checkBroadcast(pass *analysis.Pass, call *ast.CallExpr) {
	var name string
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		name = fun.Name
	case *ast.SelectorExpr:
		name = fun.Sel.Name
	default:
		return
	}
	f, ok := exprFunc(pass, call.Fun)
	if !ok {
		return
	}
	if sig, ok := f.Type().(*types.Signature); ok && sig.Recv() != nil {
		// Env.Broadcast, Env.BroadcastTagged, StageCtx.Broadcast: the
		// payload comes first.
		if (name == "Broadcast" || name == "BroadcastTagged") && len(call.Args) >= 1 {
			checkPayloadExpr(pass, call.Args[0])
		}
		return
	}
	if (name == "Broadcast" || name == "BroadcastTo") && len(call.Args) == 2 {
		checkPayloadExpr(pass, call.Args[1])
	}
}

func checkPayloadAssign(pass *analysis.Pass, s *ast.AssignStmt) {
	for i, l := range s.Lhs {
		sel, ok := l.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Payload" {
			continue
		}
		tv, ok := pass.TypesInfo.Types[sel.X]
		if !ok {
			continue
		}
		if _, isOut := isOutStruct(tv.Type); !isOut {
			continue
		}
		if i < len(s.Rhs) {
			checkPayloadExpr(pass, s.Rhs[i])
		}
	}
}

// checkPayloadExpr reports when the expression's static type is a concrete
// type without a Bits() int method.
func checkPayloadExpr(pass *analysis.Pass, e ast.Expr) {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok || tv.Type == nil {
		return
	}
	t := tv.Type
	if _, isIface := t.Underlying().(*types.Interface); isIface {
		return // checked where the concrete value is constructed
	}
	if basic, ok := t.Underlying().(*types.Basic); ok && basic.Kind() == types.UntypedNil {
		return
	}
	if analysis.HasBitsMethod(t) {
		return
	}
	pass.Reportf(e.Pos(), "payload type %s does not implement BitSized (Bits() int): "+
		"the engine downgrades the whole run to LOCAL accounting and MaxMsgBits can no longer "+
		"certify a CONGEST bound; implement Bits, or suppress with //lint:allow bitsize (reason)",
		types.TypeString(t, types.RelativeTo(pass.Pkg)))
}

// exprFunc resolves the called function object, if any.
func exprFunc(pass *analysis.Pass, e ast.Expr) (*types.Func, bool) {
	switch e := e.(type) {
	case *ast.Ident:
		f, ok := pass.TypesInfo.Uses[e].(*types.Func)
		return f, ok
	case *ast.SelectorExpr:
		f, ok := pass.TypesInfo.Uses[e.Sel].(*types.Func)
		return f, ok
	}
	return nil, false
}
