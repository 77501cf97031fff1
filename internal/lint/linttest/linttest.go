// Package linttest is the fixture harness for the lint analyzer: the
// repo-local analogue of golang.org/x/tools/go/analysis/analysistest.
// A fixture is a directory of .go files under internal/lint/testdata,
// type-checked under a caller-chosen import path, with expected
// diagnostics declared inline as `// want "regexp"` comments on the
// offending line.
package linttest

import (
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/lint"
)

// A want is one expectation parsed from a `// want "re"` comment.
type want struct {
	file    string
	line    int
	re      *regexp.Regexp
	raw     string
	matched bool
}

// Run loads the fixture directory as a package with import path
// pkgPath, runs the analyzer, and diffs the diagnostics against the
// fixture's `// want` comments: every finding must be wanted, every
// want must be found, regexes match against the finding message.
// It returns the findings for any extra assertions.
func Run(t *testing.T, a *lint.Analyzer, dir, pkgPath string) []lint.Finding {
	t.Helper()
	pkg, err := lint.LoadFixture(dir, pkgPath)
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	findings, err := lint.RunAnalyzers([]*lint.Package{pkg}, []*lint.Analyzer{a})
	if err != nil {
		t.Fatalf("running %s: %v", a.Name, err)
	}

	wants, err := parseWants(pkg)
	if err != nil {
		t.Fatalf("parsing want comments: %v", err)
	}
	for _, f := range findings {
		if w := match(wants, f); w != nil {
			w.matched = true
		} else {
			t.Errorf("unexpected finding: %s", f)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: no %s finding matched want %q", w.file, w.line, a.Name, w.raw)
		}
	}
	return findings
}

// match finds an unmatched want on the finding's file and line whose
// regexp matches the message.
func match(wants []*want, f lint.Finding) *want {
	for _, w := range wants {
		if !w.matched && w.file == f.File && w.line == f.Line && w.re.MatchString(f.Message) {
			return w
		}
	}
	return nil
}

// parseWants extracts every `// want "re"` (or backquoted) comment in
// the package. Multiple quoted regexps after one want keyword declare
// multiple expected diagnostics on that line.
func parseWants(pkg *lint.Package) ([]*want, error) {
	var wants []*want
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				idx := strings.Index(text, "want ")
				if idx < 0 || strings.TrimSpace(text[:idx]) != "" {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				patterns, err := quotedStrings(text[idx+len("want "):])
				if err != nil {
					return nil, fmt.Errorf("%s:%d: %v", pos.Filename, pos.Line, err)
				}
				if len(patterns) == 0 {
					return nil, fmt.Errorf("%s:%d: want comment with no quoted regexp", pos.Filename, pos.Line)
				}
				for _, p := range patterns {
					re, err := regexp.Compile(p)
					if err != nil {
						return nil, fmt.Errorf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, p, err)
					}
					wants = append(wants, &want{file: pos.Filename, line: pos.Line, re: re, raw: p})
				}
			}
		}
	}
	return wants, nil
}

// quotedStrings parses a sequence of space-separated Go string
// literals (double- or back-quoted).
func quotedStrings(s string) ([]string, error) {
	var out []string
	for {
		s = strings.TrimSpace(s)
		if s == "" {
			return out, nil
		}
		switch s[0] {
		case '"':
			end := -1
			for i := 1; i < len(s); i++ {
				if s[i] == '\\' {
					i++
					continue
				}
				if s[i] == '"' {
					end = i
					break
				}
			}
			if end < 0 {
				return nil, fmt.Errorf("unterminated string in want comment: %s", s)
			}
			lit, err := strconv.Unquote(s[:end+1])
			if err != nil {
				return nil, fmt.Errorf("bad string in want comment: %v", err)
			}
			out = append(out, lit)
			s = s[end+1:]
		case '`':
			end := strings.IndexByte(s[1:], '`')
			if end < 0 {
				return nil, fmt.Errorf("unterminated raw string in want comment: %s", s)
			}
			out = append(out, s[1:end+1])
			s = s[end+2:]
		default:
			return nil, fmt.Errorf("want comment arguments must be quoted regexps, got: %s", s)
		}
	}
}
