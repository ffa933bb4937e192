package analysis

import (
	"path/filepath"
	"reflect"
	"testing"
)

// TestGoldenPasses runs the full default pass set over every annotated
// testdata package and asserts each package's `// want` expectation set is
// matched exactly — every finding expected, every expectation consumed.
func TestGoldenPasses(t *testing.T) {
	cases := []struct {
		dir      string
		minDiags int // ISSUE floor: each pass fixture carries ≥2 expected diagnostics
	}{
		{"atomicstats", 2},
		{"clausering", 2},
		{"selectorrelease", 2},
		{"flusherr", 2},
		{"lockscope", 2},
		{"panicscope", 2},
		{"servectx", 3},
		{"suppress", 2},
		{"lockorder", 2},
		{"ctxflow", 3},
		{"goroleak", 2},
	}
	for _, tc := range cases {
		t.Run(tc.dir, func(t *testing.T) {
			diags := CheckPackage(t, filepath.Join("testdata", "src", tc.dir), DefaultPasses()...)
			if len(diags) < tc.minDiags {
				t.Errorf("want at least %d diagnostics from %s, got %d", tc.minDiags, tc.dir, len(diags))
			}
		})
	}
}

// TestSuppressionScope pins the suppression semantics the suppress fixture
// relies on: the surviving diagnostic set must contain the malformed and
// unknown-pass reports (pseudo-pass "hhlint") and nothing from the lines
// with well-formed ignores.
func TestSuppressionScope(t *testing.T) {
	diags := CheckPackage(t, filepath.Join("testdata", "src", "suppress"), DefaultPasses()...)
	counts := map[string]int{}
	for _, d := range diags {
		counts[d.Pass]++
	}
	if counts[SuppressionPass] != 2 {
		t.Errorf("want 2 %q diagnostics (malformed + unknown pass), got %d", SuppressionPass, counts[SuppressionPass])
	}
	if counts["atomicstats"] != 4 {
		t.Errorf("want 4 surviving atomicstats diagnostics (wrong-pass, malformed, unknown-pass, brace-line targets), got %d", counts["atomicstats"])
	}
	// Two passes fire on the twoPassSpace line; only atomicstats is named by
	// the ignore (space-separated trailing tokens are reason text), so
	// exactly one lockscope finding must survive.
	if counts["lockscope"] != 1 {
		t.Errorf("want 1 surviving lockscope diagnostic (space-separated ignore names one pass), got %d", counts["lockscope"])
	}
}

func TestSplitIgnore(t *testing.T) {
	cases := []struct {
		in     string
		passes []string
		reason string
	}{
		{"atomicstats the reason", []string{"atomicstats"}, "the reason"},
		{"a,b two passes one reason", []string{"a", "b"}, "two passes one reason"},
		{"all everything silenced here", []string{"all"}, "everything silenced here"},
		{"atomicstats", []string{"atomicstats"}, ""},
		{"", nil, ""},
	}
	for _, tc := range cases {
		passes, reason := splitIgnore(tc.in)
		if !reflect.DeepEqual(passes, tc.passes) || reason != tc.reason {
			t.Errorf("splitIgnore(%q) = %v, %q; want %v, %q", tc.in, passes, reason, tc.passes, tc.reason)
		}
	}
}

func TestIgnoreText(t *testing.T) {
	if got, ok := ignoreText("//hhlint:ignore p r"); !ok || got != "p r" {
		t.Errorf("line comment: got %q, %v", got, ok)
	}
	if got, ok := ignoreText("/*hhlint:ignore p r*/"); !ok || got != "p r" {
		t.Errorf("block comment: got %q, %v", got, ok)
	}
	if _, ok := ignoreText("// plain comment"); ok {
		t.Errorf("plain comment treated as suppression")
	}
}

// TestSelfLint is the repo's own cleanliness gate in test form: the module
// at the repo root must produce zero findings (the `make lint` contract).
func TestSelfLint(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short mode")
	}
	pkgs, err := LoadModule(filepath.Join("..", ".."))
	if err != nil {
		t.Fatalf("LoadModule: %v", err)
	}
	diags := Run(pkgs, DefaultPasses())
	for _, d := range diags {
		t.Errorf("self-lint finding: %s", d.String())
	}
}
