package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// A Package is one type-checked compilation unit ready for analysis.
type Package struct {
	PkgPath   string
	GoFiles   []string
	Fset      *token.FileSet
	Files     []*ast.File
	Types     *types.Package
	TypesInfo *types.Info

	// directives indexes //mmm: comments by file and line, shared by
	// every analyzer pass over this package.
	directives map[string]map[int][]directive
}

// listedPackage is the subset of `go list -json` output the loader
// consumes.
type listedPackage struct {
	Dir        string
	ImportPath string
	Name       string
	Export     string
	GoFiles    []string
	CgoFiles   []string
	ImportMap  map[string]string
	ForTest    string
	DepOnly    bool
	Standard   bool
	Error      *struct{ Err string }
}

// Load resolves patterns (e.g. "./...") in dir with the go tool and
// type-checks every matched package, _test.go files included, from
// source. A package with in-package tests is analyzed as its test
// variant "p [p.test]", which holds all of p's files, and an external
// test package p_test as a package of its own; the generated test main
// "p.test" and dependencies recompiled for a test binary ("q [p.test]")
// are skipped. The " [p.test]" suffix is stripped, so analyzers see
// plain import paths. Imports — stdlib and intra-module alike — are
// satisfied from the compiler export data that `go list -export` places
// in the build cache, resolved through each package's ImportMap, so
// loading needs no network and no dependencies beyond the toolchain.
// Patterns that leave no package to analyze are an error.
func Load(dir string, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	listed, err := goList(dir, append([]string{"-test"}, patterns...))
	if err != nil {
		return nil, err
	}

	exports := make(map[string]string, len(listed))
	hasVariant := map[string]bool{} // p -> "p [p.test]" was listed
	testMain := map[string]bool{}   // "p.test" -> generated test main
	for _, p := range listed {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if p.ForTest != "" {
			testMain[p.ForTest+".test"] = true
			if plainPath(p.ImportPath) == p.ForTest {
				hasVariant[p.ForTest] = true
			}
		}
	}
	var roots []*listedPackage
	var broken []string
	for _, p := range listed {
		// Skip dependencies (a test binary's recompiled "q [p.test]" is
		// one too), the plain p whose test variant was listed, and the
		// generated test main "p.test".
		path := plainPath(p.ImportPath)
		if p.DepOnly || p.Standard || p.ForTest == "" && (hasVariant[path] || testMain[path]) {
			continue
		}
		if p.Error != nil {
			broken = append(broken, fmt.Sprintf("%s: %s", p.ImportPath, p.Error.Err))
			continue
		}
		if p.Name == "" || len(p.GoFiles) == 0 {
			continue
		}
		if len(p.CgoFiles) > 0 {
			// cgo files cannot be type-checked from source without the
			// generated shims; the repository has none, so refuse
			// loudly rather than analyze a half-package.
			broken = append(broken, fmt.Sprintf("%s: uses cgo, cannot analyze", p.ImportPath))
			continue
		}
		roots = append(roots, p)
	}
	if len(broken) > 0 {
		return nil, fmt.Errorf("lint: cannot load:\n  %s", strings.Join(broken, "\n  "))
	}
	if len(roots) == 0 {
		return nil, fmt.Errorf("lint: no package to analyze matches %s", strings.Join(patterns, " "))
	}
	sort.Slice(roots, func(i, j int) bool { return roots[i].ImportPath < roots[j].ImportPath })

	fset := token.NewFileSet()
	var pkgs []*Package
	var typeErrs []string
	for _, p := range roots {
		files := make([]*ast.File, 0, len(p.GoFiles))
		names := make([]string, 0, len(p.GoFiles))
		for _, name := range p.GoFiles {
			path := filepath.Join(p.Dir, name)
			f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				return nil, fmt.Errorf("lint: %v", err)
			}
			files = append(files, f)
			names = append(names, path)
		}
		// Each package gets its own importer: a test binary's
		// ImportMap points an import path at a recompiled variant, and
		// the importer caches packages by path.
		path := plainPath(p.ImportPath)
		pkg, info, errs := check(path, fset, files, exportImporter(fset, exports, p.ImportMap))
		if len(errs) > 0 {
			for _, e := range errs {
				typeErrs = append(typeErrs, e.Error())
			}
			continue
		}
		pkgs = append(pkgs, newPackage(path, names, fset, files, pkg, info))
	}
	if len(typeErrs) > 0 {
		if len(typeErrs) > 10 {
			typeErrs = append(typeErrs[:10], "...")
		}
		return nil, fmt.Errorf("lint: type errors:\n  %s", strings.Join(typeErrs, "\n  "))
	}
	return pkgs, nil
}

// plainPath strips the " [p.test]" suffix go list gives the packages
// of a test binary.
func plainPath(importPath string) string {
	path, _, _ := strings.Cut(importPath, " [")
	return path
}

// newPackage assembles a Package and its directive index.
func newPackage(path string, goFiles []string, fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info) *Package {
	p := &Package{
		PkgPath:   path,
		GoFiles:   goFiles,
		Fset:      fset,
		Files:     files,
		Types:     pkg,
		TypesInfo: info,
	}
	p.directives = make(map[string]map[int][]directive, len(files))
	for _, f := range files {
		pos := fset.Position(f.Pos())
		p.directives[pos.Filename] = suppressions(f, fset)
	}
	return p
}

// check type-checks one package's files.
func check(path string, fset *token.FileSet, files []*ast.File, imp types.Importer) (*types.Package, *types.Info, []error) {
	var errs []error
	conf := types.Config{
		Importer: imp,
		Error:    func(err error) { errs = append(errs, err) },
	}
	info := NewTypesInfo()
	pkg, _ := conf.Check(path, fset, files, info)
	return pkg, info, errs
}

// NewTypesInfo returns a types.Info with every map the analyzers
// consult allocated.
func NewTypesInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
}

// exportImporter satisfies imports from compiler export data files,
// first mapping each import path through importMap (nil for none).
func exportImporter(fset *token.FileSet, exports, importMap map[string]string) types.Importer {
	return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if mapped, ok := importMap[path]; ok {
			path = mapped
		}
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
}

// goList runs `go list -e -export -deps -json` with the further
// flags and patterns in args.
func goList(dir string, args []string) ([]*listedPackage, error) {
	args = append([]string{
		"list", "-e", "-export", "-deps",
		"-json=Dir,ImportPath,Name,Export,GoFiles,CgoFiles,ImportMap,ForTest,DepOnly,Standard,Error",
	}, args...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("lint: go list: %v\n%s", err, stderr.String())
	}
	dec := json.NewDecoder(&stdout)
	var out []*listedPackage
	for {
		p := new(listedPackage)
		if err := dec.Decode(p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("lint: decoding go list output: %v", err)
		}
		out = append(out, p)
	}
	return out, nil
}

// ExportsFor returns the export-data lookup table for the given import
// paths and their transitive dependencies — used by the fixture test
// harness to type-check testdata packages against the real stdlib.
func ExportsFor(dir string, importPaths ...string) (map[string]string, error) {
	if len(importPaths) == 0 {
		return map[string]string{}, nil
	}
	listed, err := goList(dir, importPaths)
	if err != nil {
		return nil, err
	}
	exports := make(map[string]string, len(listed))
	for _, p := range listed {
		if p.Error != nil {
			return nil, fmt.Errorf("lint: %s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}
	return exports, nil
}
