package lint

import (
	"fmt"
	"io"
	"path/filepath"
	"sort"
	"strings"
)

// A Finding is one positioned diagnostic in reporting form, as
// `mmmgate lint` prints it.
type Finding struct {
	File     string
	Line     int
	Col      int
	Analyzer string
	Message  string
}

// String renders the conventional file:line:col: analyzer: message
// form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", f.File, f.Line, f.Col, f.Analyzer, f.Message)
}

// RunAnalyzers runs every analyzer over every package and returns the
// merged findings in deterministic order (file, line, col, analyzer,
// message).
func RunAnalyzers(pkgs []*Package, analyzers []*Analyzer) ([]Finding, error) {
	var findings []Finding
	for _, pkg := range pkgs {
		fs, err := runPackage(pkg, analyzers)
		if err != nil {
			return nil, err
		}
		findings = append(findings, fs...)
	}
	SortFindings(findings)
	return findings, nil
}

// runPackage runs the analyzers over one package.
func runPackage(pkg *Package, analyzers []*Analyzer) ([]Finding, error) {
	var findings []Finding
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.TypesInfo,
			pkg:       pkg,
		}
		pass.report = func(d Diagnostic) {
			pos := pkg.Fset.Position(d.Pos)
			findings = append(findings, Finding{
				File:     pos.Filename,
				Line:     pos.Line,
				Col:      pos.Column,
				Analyzer: a.Name,
				Message:  d.Message,
			})
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("lint: %s on %s: %w", a.Name, pkg.PkgPath, err)
		}
	}
	return findings, nil
}

// SortFindings orders findings by file, line, column, analyzer and
// message.
func SortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}

// Relativize rewrites absolute finding paths relative to dir when
// possible, for stable, readable output.
func Relativize(dir string, fs []Finding) {
	for i := range fs {
		rel, err := filepath.Rel(dir, fs[i].File)
		if err == nil && !strings.HasPrefix(rel, "..") {
			fs[i].File = filepath.ToSlash(rel)
		}
	}
}

// WriteText emits findings one per line in file:line:col form.
func WriteText(w io.Writer, fs []Finding) error {
	for _, f := range fs {
		if _, err := fmt.Fprintln(w, f.String()); err != nil {
			return err
		}
	}
	return nil
}
