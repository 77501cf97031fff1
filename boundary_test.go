package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// boundaryPackages is the determinism boundary: the internal packages
// whose code must be a pure function of (config, seed), the simulated
// machine and everything it is built from. This is the one list of
// them.
var boundaryPackages = []string{
	"cache", "core", "cpu", "fault", "interconnect", "isa", "mode",
	"pab", "paging", "relia", "reunion", "sched", "sim", "stats",
	"trace", "vcpu", "workload",
}

// outsidePackages are the internal packages outside the boundary: the
// orchestration layers, which may read the wall clock and the
// environment.
var outsidePackages = []string{"api", "campaign", "exp", "lint", "obs"}

// boundaryForbidden are the imports no boundary file may have: the
// wall clock and timers, and the process-wide random sources.
var boundaryForbidden = map[string]bool{"time": true, "math/rand": true, "math/rand/v2": true}

// envReads are the os functions that read the environment.
var envReads = map[string]bool{"Getenv": true, "LookupEnv": true, "Environ": true, "ExpandEnv": true}

// TestBoundaryImports: no file of a boundary package, in any
// subdirectory but testdata, imports time, math/rand or math/rand/v2.
// Only _test.go files may import os (golden tests read their files
// with it), and those may not read the environment. Every directory
// under internal/ must be in one of the two lists, and every listed
// package must have Go files, so a new package is classified when it
// is added.
func TestBoundaryImports(t *testing.T) {
	listed := map[string]bool{}
	for _, pkg := range append(append([]string(nil), boundaryPackages...), outsidePackages...) {
		listed[pkg] = true
		if files, _ := filepath.Glob(filepath.Join("internal", pkg, "*.go")); len(files) == 0 {
			t.Errorf("internal/%s is listed but has no Go files", pkg)
		}
	}
	entries, err := os.ReadDir("internal")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() && !listed[e.Name()] {
			t.Errorf("internal/%s is in neither boundaryPackages nor outsidePackages", e.Name())
		}
	}

	for _, pkg := range boundaryPackages {
		err := filepath.WalkDir(filepath.Join("internal", pkg), func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() && d.Name() == "testdata" {
				return filepath.SkipDir
			}
			if !d.IsDir() && strings.HasSuffix(path, ".go") {
				checkBoundaryFile(t, path)
			}
			return nil
		})
		if err != nil {
			t.Error(err)
		}
	}
}

// checkBoundaryFile applies the boundary's import rules to one file.
func checkBoundaryFile(t *testing.T, path string) {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
	if err != nil {
		t.Error(err)
		return
	}
	osName := ""
	for _, imp := range f.Imports {
		p, _ := strconv.Unquote(imp.Path.Value) // the parser accepted it
		switch {
		case boundaryForbidden[p]:
			t.Errorf("%s imports %s: simulation must be a pure function of (config, seed)", path, p)
		case p != "os":
		case !strings.HasSuffix(path, "_test.go"):
			t.Errorf("%s imports os: inside the determinism boundary only _test.go files may", path)
		case imp.Name != nil:
			osName = imp.Name.Name
		default:
			osName = "os"
		}
	}
	if osName == "." {
		t.Errorf("%s dot-imports os", path)
	}
	if osName == "" {
		return
	}
	ast.Inspect(f, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok && envReads[sel.Sel.Name] {
			if id, ok := sel.X.(*ast.Ident); ok && id.Name == osName {
				t.Errorf("%s: os.%s reads the environment inside the determinism boundary", path, sel.Sel.Name)
			}
		}
		return true
	})
}
