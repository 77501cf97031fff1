// Package lint is the repository's map-order analyzer: one
// repo-specific static check, maporder, that turns a part of the
// byte-identity contract defended at runtime by the golden-row, replay
// and traced-vs-untraced tests into a compile-time error. It flags map
// iteration feeding an output sink (hash, JSON encoder, io.Writer,
// returned slice) without a sort, which a runtime comparison catches
// only when the map happens to iterate in a different order. It is a
// small, dependency-free reimplementation of the golang.org/x/tools
// go/analysis driver shape (Analyzer / Pass / Diagnostic) built on
// go/ast + go/types only, because the analyzer needs full type
// information but the repository takes no module dependencies. Load is
// its one driver: it checks each package together with its _test.go
// files, and `mmmgate lint` runs it from the command line.
//
// The other code properties the reproduction rests on are tested as
// properties, wherever the code runs:
//
//   - cache identity (every field of api.Job, api.Knobs and api.Scale
//     reaches the result cache's address): api's
//     TestEveryJobFieldSeparatesFingerprints;
//   - no allocation that scales with simulated cycles in a warm
//     Chip.Run: core's TestWarmRunAllocations;
//   - nil-safe telemetry instruments and recorder: obs's TestNilSafety;
//   - no wall clock, environment reads or global RNG inside the
//     determinism boundary: the module root's TestBoundaryImports.
//
// Audited exceptions are declared in source with //mmm: directives
// (see Suppressed); every directive requires a reason.
package lint

import (
	"fmt"
	"go/ast"
	"go/printer"
	"go/token"
	"go/types"
	"strings"
)

// An Analyzer describes one static check. The shape deliberately
// mirrors golang.org/x/tools/go/analysis.Analyzer so the check can be
// ported onto the real framework if the repository ever takes the
// dependency.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
}

// A Pass is one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	pkg    *Package
	report func(Diagnostic)
}

// A Diagnostic is one finding, positioned in the pass's file set.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// All returns every analyzer, in stable order.
func All() []*Analyzer {
	return []*Analyzer{MapOrder}
}

// A directive is one parsed //mmm:<marker> <reason> comment.
type directive struct {
	marker string
	reason string
}

// suppressions indexes every //mmm: directive of a file by line.
func suppressions(file *ast.File, fset *token.FileSet) map[int][]directive {
	out := make(map[int][]directive)
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			text := c.Text
			if !strings.HasPrefix(text, "//") {
				continue // block comments cannot carry directives
			}
			text = strings.TrimPrefix(text, "//")
			idx := strings.Index(text, "mmm:")
			if idx != 0 { // directives are //mmm:..., no leading space
				continue
			}
			body := text[len("mmm:"):]
			marker, reason, _ := strings.Cut(body, " ")
			line := fset.Position(c.Pos()).Line
			out[line] = append(out[line], directive{marker: marker, reason: strings.TrimSpace(reason)})
		}
	}
	return out
}

// Suppressed reports whether a //mmm:<marker> directive with a
// non-empty reason covers pos: on the same line (trailing comment) or
// on the line immediately above (comment line). A directive without a
// reason does not suppress — audits must say why.
func (p *Pass) Suppressed(marker string, pos token.Pos) bool {
	position := p.Fset.Position(pos)
	idx := p.pkg.directives[position.Filename]
	if idx == nil {
		return false
	}
	for _, line := range []int{position.Line, position.Line - 1} {
		for _, d := range idx[line] {
			if d.marker == marker && d.reason != "" {
				return true
			}
		}
	}
	return false
}

// render pretty-prints a node for string comparison of expressions
// (append targets vs. sort arguments vs. returned values).
func render(fset *token.FileSet, n ast.Node) string {
	var b strings.Builder
	printer.Fprint(&b, fset, n)
	return b.String()
}

// hasWriteMethod reports whether t (or *t) has a Write([]byte) (int,
// error) method — the structural io.Writer check that also covers
// hash.Hash, strings.Builder, bytes.Buffer and http.ResponseWriter.
func hasWriteMethod(t types.Type) bool {
	if t == nil {
		return false
	}
	obj, _, _ := types.LookupFieldOrMethod(t, true, nil, "Write")
	fn, ok := obj.(*types.Func)
	if !ok {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Params().Len() != 1 || sig.Results().Len() != 2 {
		return false
	}
	sl, ok := sig.Params().At(0).Type().(*types.Slice)
	if !ok {
		return false
	}
	if basic, ok := sl.Elem().(*types.Basic); !ok || basic.Kind() != types.Byte {
		return false
	}
	if basic, ok := sig.Results().At(0).Type().(*types.Basic); !ok || basic.Kind() != types.Int {
		return false
	}
	named, ok := sig.Results().At(1).Type().(*types.Named)
	return ok && named.Obj().Name() == "error" && named.Obj().Pkg() == nil
}

// usedPackage resolves a selector base expression to the package it
// names, if it is a package qualifier (fmt.Fprintf -> "fmt").
func usedPackage(info *types.Info, x ast.Expr) (string, bool) {
	id, ok := x.(*ast.Ident)
	if !ok {
		return "", false
	}
	pn, ok := info.Uses[id].(*types.PkgName)
	if !ok {
		return "", false
	}
	return pn.Imported().Path(), true
}

// namedFrom unwraps pointers and reports the defining package path and
// name of a named type ("encoding/json", "Encoder").
func namedFrom(t types.Type) (pkgPath, name string, ok bool) {
	if t == nil {
		return "", "", false
	}
	if ptr, isPtr := t.(*types.Pointer); isPtr {
		t = ptr.Elem()
	}
	named, isNamed := t.(*types.Named)
	if !isNamed || named.Obj().Pkg() == nil {
		return "", "", false
	}
	return named.Obj().Pkg().Path(), named.Obj().Name(), true
}

// forEachFuncScope calls fn once per function body in the file —
// declarations and literals — without descending into nested function
// literals (each gets its own call). ftype carries the function's
// signature for named-result analysis.
func forEachFuncScope(file *ast.File, fn func(ftype *ast.FuncType, body *ast.BlockStmt)) {
	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			if n.Body != nil {
				fn(n.Type, n.Body)
			}
		case *ast.FuncLit:
			fn(n.Type, n.Body)
		}
		return true
	}
	ast.Inspect(file, visit)
}

// inspectShallow walks n without descending into nested function
// literals.
func inspectShallow(n ast.Node, fn func(ast.Node) bool) {
	ast.Inspect(n, func(n ast.Node) bool {
		if _, isLit := n.(*ast.FuncLit); isLit {
			return false
		}
		return fn(n)
	})
}
