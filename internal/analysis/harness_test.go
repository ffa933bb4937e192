package analysis

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// fakeTB records harness failures instead of failing the enclosing test, so
// the harness's own failure modes can be asserted.
type fakeTB struct{ errs []string }

func (f *fakeTB) Helper() {}
func (f *fakeTB) Errorf(format string, args ...any) {
	f.errs = append(f.errs, fmt.Sprintf(format, args...))
}

// lineOf returns the 1-based line number of the first line of path that
// contains marker.
func lineOf(t *testing.T, path, marker string) int {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	for i, line := range strings.Split(string(data), "\n") {
		if strings.Contains(line, marker) {
			return i + 1
		}
	}
	t.Fatalf("marker %q not found in %s", marker, path)
	return 0
}

// TestMetaBuggyExactDiagnosticSet is the harness meta-test the ISSUE asks
// for: the deliberately buggy metabuggy package (which carries NO `// want`
// comments) must produce exactly the expected diagnostic set — one finding
// per planted bug, no more, no less.
func TestMetaBuggyExactDiagnosticSet(t *testing.T) {
	dir := filepath.Join("testdata", "src", "metabuggy")
	pkg, err := LoadPackage(dir)
	if err != nil {
		t.Fatalf("LoadPackage: %v", err)
	}
	diags := Run([]*Package{pkg}, DefaultPasses())

	main := filepath.Join(dir, "metabuggy.go")
	persist := filepath.Join(dir, "persist.go")
	want := []string{
		fmt.Sprintf("metabuggy.go:%d: [ctxflow] metabuggy.nap receives a ctx but blocks here without observing it (time.Sleep)",
			lineOf(t, main, "BUG(ctxflow)")),
		fmt.Sprintf("metabuggy.go:%d: [lockscope] call through function value e.hook while holding e.mu (agent-visible callback under lock)",
			lineOf(t, main, "BUG(lockscope)")),
		fmt.Sprintf("persist.go:%d: [flusherr] discarded error from Close (durable-path errors must be handled, or suppressed with a reason)",
			lineOf(t, persist, "BUG(flusherr)")),
	}
	got := make([]string, 0, len(diags))
	for _, d := range diags {
		got = append(got, fmt.Sprintf("%s:%d: [%s] %s", filepath.Base(d.File), d.Line, d.Pass, d.Msg))
	}
	sort.Strings(want)
	sort.Strings(got)
	if len(got) != len(want) {
		t.Fatalf("diagnostic count: got %d, want %d\ngot:\n\t%s\nwant:\n\t%s",
			len(got), len(want), strings.Join(got, "\n\t"), strings.Join(want, "\n\t"))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("diagnostic mismatch:\n\tgot:  %s\n\twant: %s", got[i], want[i])
		}
	}
}

// TestHarnessFlagsUnexpected: every metabuggy finding must be reported as
// unexpected when the package has no want comments — the harness cannot be
// silently lenient in either direction.
func TestHarnessFlagsUnexpected(t *testing.T) {
	ft := &fakeTB{}
	diags := CheckPackage(ft, filepath.Join("testdata", "src", "metabuggy"), DefaultPasses()...)
	if len(diags) == 0 {
		t.Fatalf("metabuggy produced no diagnostics")
	}
	if len(ft.errs) != len(diags) {
		t.Fatalf("want %d harness failures (one per finding), got %d:\n\t%s",
			len(diags), len(ft.errs), strings.Join(ft.errs, "\n\t"))
	}
	for _, e := range ft.errs {
		if !strings.Contains(e, "unexpected diagnostic") {
			t.Errorf("failure is not an unexpected-diagnostic report: %s", e)
		}
	}
}

// mustExpect builds one expectation from its parts.
func mustExpect(t *testing.T, file string, line int, re string) *expectation {
	t.Helper()
	compiled, err := regexp.Compile(re)
	if err != nil {
		t.Fatalf("bad test regexp %q: %v", re, err)
	}
	return &expectation{file: file, line: line, re: compiled, raw: re}
}

// TestMatchExpectations covers the exact-set matcher's outcomes directly: a
// clean match, an unexpected diagnostic, an unconsumed expectation, and a
// line mismatch (which must fail in both directions).
func TestMatchExpectations(t *testing.T) {
	d := Diagnostic{Pass: "p", File: "f.go", Line: 3, Col: 1, Msg: "boom happened"}

	t.Run("clean", func(t *testing.T) {
		ft := &fakeTB{}
		MatchExpectations(ft, []Diagnostic{d}, []*expectation{mustExpect(t, "f.go", 3, `\[p\] boom`)})
		if len(ft.errs) != 0 {
			t.Errorf("clean match produced failures: %v", ft.errs)
		}
	})
	t.Run("unexpected", func(t *testing.T) {
		ft := &fakeTB{}
		MatchExpectations(ft, []Diagnostic{d}, nil)
		if len(ft.errs) != 1 || !strings.Contains(ft.errs[0], "unexpected diagnostic") {
			t.Errorf("want one unexpected-diagnostic failure, got %v", ft.errs)
		}
	})
	t.Run("unmatched", func(t *testing.T) {
		ft := &fakeTB{}
		MatchExpectations(ft, nil, []*expectation{mustExpect(t, "f.go", 3, "boom")})
		if len(ft.errs) != 1 || !strings.Contains(ft.errs[0], "expected diagnostic not reported") {
			t.Errorf("want one unmatched-expectation failure, got %v", ft.errs)
		}
	})
	t.Run("wrong-line", func(t *testing.T) {
		ft := &fakeTB{}
		MatchExpectations(ft, []Diagnostic{d}, []*expectation{mustExpect(t, "f.go", 4, "boom")})
		if len(ft.errs) != 2 {
			t.Errorf("line mismatch must fail both directions, got %v", ft.errs)
		}
	})
}
