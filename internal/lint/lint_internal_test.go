package lint

import "testing"

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
