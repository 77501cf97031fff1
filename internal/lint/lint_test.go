package lint_test

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/lint"
	"repro/internal/lint/linttest"
)

func fixture(elem ...string) string {
	return filepath.Join(append([]string{"testdata", "src"}, elem...)...)
}

// TestMapOrderFixture: each sink kind fires, a directive without a
// reason does not suppress, and the sorted-afterwards pattern, the
// reasoned suppression and sink-free reductions do not fire.
func TestMapOrderFixture(t *testing.T) {
	fs := linttest.Run(t, lint.MapOrder, fixture("maporder", "sinks"), "example.com/mapsink")
	if len(fs) != 5 {
		t.Errorf("maporder fixture produced %d findings, want 5", len(fs))
	}
}

// TestRepoTreeIsClean pins the acceptance criterion: `mmmgate lint`
// over the whole repository, _test.go files included, exits clean. Any
// new finding must be fixed or carry an audited suppression in the
// same change.
func TestRepoTreeIsClean(t *testing.T) {
	pkgs, err := lint.Load("../..", "./...")
	if err != nil {
		t.Fatalf("loading repository: %v", err)
	}
	if len(pkgs) == 0 {
		t.Fatal("loader matched no packages")
	}
	findings, err := lint.RunAnalyzers(pkgs, lint.All())
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("tree not lint-clean: %s", f)
	}
}

// TestFindingString pins the conventional rendering used by CI logs.
func TestFindingString(t *testing.T) {
	f := lint.Finding{File: "x/y.go", Line: 12, Col: 4, Analyzer: "maporder", Message: "oops"}
	if got, want := f.String(), "x/y.go:12:4: maporder: oops"; got != want {
		t.Errorf("Finding.String() = %q, want %q", got, want)
	}
}

// TestLoadCoversTestFiles pins the driver's contract: a package is
// analyzed together with its _test.go files, each source file once,
// also report.go, which the test binary recompiles; an external test
// package that uses a test-only helper type-checks against the test
// variant; and a pattern matching no package is an error rather than
// a clean run.
func TestLoadCoversTestFiles(t *testing.T) {
	dir := t.TempDir()
	for name, src := range map[string]string{
		"go.mod": "module example.com/probe\n\ngo 1.22\n",
		"internal/core/core.go": `package core

// Cycles is a pure function of its input.
func Cycles(n int) int { return 2 * n }
`,
		"internal/core/core_test.go": `package core

// Stamp is a test-only helper the external test package uses.
func Stamp() int64 { return int64(len(keys(map[string]int{"a": 1}))) }

// keys returns m's keys in map order.
func keys(m map[string]int) []string {
	var ks []string
	for k := range m {
		ks = append(ks, k)
	}
	return ks
}
`,
		"internal/report/report.go": `package report

import "example.com/probe/internal/core"

// Doubled reports core's cycle count.
func Doubled(n int) int { return core.Cycles(n) }
`,
		"internal/core/ext_test.go": `package core_test

import (
	"testing"

	"example.com/probe/internal/core"
	"example.com/probe/internal/report"
)

func TestCycles(t *testing.T) {
	if report.Doubled(2) != 4 || core.Stamp() == 0 {
		t.Fatal("core")
	}
}
`,
		"docs/README": "no Go files here\n",
	} {
		path := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	pkgs, err := lint.Load(dir, "./...")
	if err != nil {
		t.Fatalf("loading probe module: %v", err)
	}
	loaded := map[string]int{}
	for _, p := range pkgs {
		for _, f := range p.GoFiles {
			loaded[filepath.Base(f)]++
		}
	}
	want := map[string]int{"core.go": 1, "core_test.go": 1, "ext_test.go": 1, "report.go": 1}
	if !reflect.DeepEqual(loaded, want) {
		t.Errorf("files loaded = %v, want each source file once: %v", loaded, want)
	}
	findings, err := lint.RunAnalyzers(pkgs, lint.All())
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 1 || findings[0].Analyzer != "maporder" ||
		filepath.Base(findings[0].File) != "core_test.go" {
		t.Errorf("findings = %v, want one maporder finding in core_test.go", findings)
	}

	if _, err := lint.Load(dir, "./docs/..."); err == nil {
		t.Error("a pattern matching no package loaded cleanly")
	}
}
