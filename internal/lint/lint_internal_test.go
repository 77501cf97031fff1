package lint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestBoundaryPackage pins the path gating shared by detclock.
func TestBoundaryPackage(t *testing.T) {
	cases := []struct {
		path string
		name string
		in   bool
	}{
		{"repro/internal/core", "core", true},
		{"repro/internal/sim", "sim", true},
		{"repro/internal/cache", "cache", true},
		{"repro/internal/campaign", "", false},
		{"repro/internal/obs", "", false},
		{"repro/cmd/mmm", "", false},
		{"internal/stats", "stats", true},
		{"example.com/a/internal/trace/sub", "trace", true},
		{"example.com/sprinternal/core", "", false},
	}
	for _, tc := range cases {
		name, in := boundaryPackage(tc.path)
		if name != tc.name || in != tc.in {
			t.Errorf("boundaryPackage(%q) = (%q, %v), want (%q, %v)", tc.path, name, in, tc.name, tc.in)
		}
	}
}

// TestSuppressionsRequireReason: the directive index keeps reasonless
// directives distinguishable so analyzers can refuse them.
func TestSuppressionsRequireReason(t *testing.T) {
	dir := t.TempDir()
	src := `package campaign

// Knobs is annotated but one exemption has no reason.
//
//mmm:knobcover Fingerprint
type Knobs struct {
	A int
	//mmm:knobcover-exempt
	B int
}

// Fingerprint reads A only.
func (k Knobs) Fingerprint() int { return k.A }
`
	if err := os.WriteFile(filepath.Join(dir, "k.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	pkg, err := LoadFixture(dir, "example.com/knobs")
	if err != nil {
		t.Fatal(err)
	}
	findings, err := RunAnalyzers([]*Package{pkg}, []*Analyzer{KnobCover})
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 1 || !strings.Contains(findings[0].Message, "Knobs.B") {
		t.Errorf("reasonless exempt directive should not exempt; findings: %v", findings)
	}
}
