package lint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// LoadFixture parses and type-checks a testdata package from dir,
// giving it the declared import path. Stdlib imports are satisfied from compiler export data via `go list
// -export`, exactly like Load; the fixture directory must not import
// anything outside the standard library.
func LoadFixture(dir, pkgPath string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("lint: fixture %s: %w", dir, err)
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("lint: fixture %s has no .go files", dir)
	}

	fset := token.NewFileSet()
	var files []*ast.File
	var goFiles []string
	importSet := map[string]bool{}
	for _, name := range names {
		path := filepath.Join(dir, name)
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("lint: %v", err)
		}
		files = append(files, f)
		goFiles = append(goFiles, path)
		for _, imp := range f.Imports {
			p, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				return nil, fmt.Errorf("lint: %s: bad import %s", path, imp.Path.Value)
			}
			if p != "unsafe" {
				importSet[p] = true
			}
		}
	}
	var imports []string
	for p := range importSet {
		imports = append(imports, p)
	}
	sort.Strings(imports)

	exports, err := ExportsFor(dir, imports...)
	if err != nil {
		return nil, err
	}
	pkg, info, errs := check(pkgPath, fset, files, exportImporter(fset, exports, nil))
	if len(errs) > 0 {
		msgs := make([]string, 0, len(errs))
		for _, e := range errs {
			msgs = append(msgs, e.Error())
		}
		return nil, fmt.Errorf("lint: fixture %s does not type-check:\n  %s", dir, strings.Join(msgs, "\n  "))
	}
	return newPackage(pkgPath, goFiles, fset, files, pkg, info), nil
}
