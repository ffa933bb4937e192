package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// envRunMain makes the re-executed test binary behave as hhlint itself.
const envRunMain = "HHLINT_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(envRunMain) == "1" {
		os.Exit(run())
	}
	os.Exit(m.Run())
}

// hhlint re-execs the test binary as hhlint with args in dir and returns
// its stdout, stderr and exit code.
func hhlint(t *testing.T, dir string, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), envRunMain+"=1")
	var out, errOut strings.Builder
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err := cmd.Run()
	var ee *exec.ExitError
	switch {
	case err == nil:
	case errors.As(err, &ee):
		code = ee.ExitCode()
	default:
		t.Fatalf("run hhlint %v: %v", args, err)
	}
	return out.String(), errOut.String(), code
}

// writeModule lays out a throwaway module: files maps slash paths relative
// to the module root to their contents.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	files["go.mod"] = "module probe\n\ngo 1.22\n"
	for name, src := range files {
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

// TestCLICleanModuleExitsZero: no findings means no output and exit 0.
func TestCLICleanModuleExitsZero(t *testing.T) {
	root := writeModule(t, map[string]string{
		"probe.go": "package probe\n\nfunc F() int { return 1 }\n",
	})
	stdout, stderr, code := hhlint(t, t.TempDir(), "-C", root, "./...")
	if code != 0 || stdout != "" {
		t.Fatalf("exit %d, stdout %q, stderr %q; want exit 0 and no output", code, stdout, stderr)
	}
}

// TestCLIFindingExitsOne: one violation prints one finding, with its path
// relative to -C, and exits 1. The module root is given relative to the
// working directory, so the relative rendering cannot lean on an absolute
// -C.
func TestCLIFindingExitsOne(t *testing.T) {
	root := writeModule(t, map[string]string{
		"sub/bad.go": "package sub\n\nfunc F() {\n\tdefer func() {\n\t\trecover()\n\t}()\n}\n",
	})
	stdout, stderr, code := hhlint(t, filepath.Dir(root), "-C", filepath.Base(root), "./...")
	if code != 1 {
		t.Fatalf("exit %d, stdout %q, stderr %q; want exit 1", code, stdout, stderr)
	}
	lines := strings.Split(strings.TrimSuffix(stdout, "\n"), "\n")
	const want = "sub/bad.go:5:3: [panicscope] recover() outside a designated panic boundary"
	if len(lines) != 1 || !strings.HasPrefix(lines[0], want) {
		t.Fatalf("stdout %q; want one line starting %q", stdout, want)
	}
}

// TestCLIListNamesPasses: -list exits 0 and names exactly the registered
// passes, one per line, in name order.
func TestCLIListNamesPasses(t *testing.T) {
	stdout, stderr, code := hhlint(t, t.TempDir(), "-list")
	if code != 0 || stderr != "" {
		t.Fatalf("exit %d, stderr %q; want exit 0 and nothing on stderr", code, stderr)
	}
	var names []string
	for _, line := range strings.Split(strings.TrimSuffix(stdout, "\n"), "\n") {
		if f := strings.Fields(line); len(f) > 0 {
			names = append(names, f[0])
		}
	}
	if got, want := strings.Join(names, " "), "ctxflow flusherr lockscope panicscope"; got != want {
		t.Fatalf("-list names %q; want %q\nstdout:\n%s", got, want, stdout)
	}
}

// TestCLIUsageErrorsExitTwo: a pattern other than ./..., a -C directory
// without go.mod, and a working directory with no go.mod upward are all
// exit 2 with the reason on stderr.
func TestCLIUsageErrorsExitTwo(t *testing.T) {
	root := writeModule(t, map[string]string{
		"probe.go": "package probe\n",
	})
	noMod := t.TempDir()
	cases := []struct {
		name string
		dir  string
		args []string
	}{
		{"pattern", root, []string{"./internal/..."}},
		{"C-without-go.mod", root, []string{"-C", noMod}},
		{"no-go.mod-upward", noMod, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.args == nil && goModUpward(tc.dir) {
				t.Skipf("a go.mod sits at or above %s", tc.dir)
			}
			stdout, stderr, code := hhlint(t, tc.dir, tc.args...)
			if code != 2 || stdout != "" || !strings.HasPrefix(stderr, "hhlint: ") {
				t.Fatalf("exit %d, stdout %q, stderr %q; want exit 2 and an hhlint: message on stderr", code, stdout, stderr)
			}
		})
	}
}

// TestCLIHonoursBuildConstraints: a file excluded by its //go:build line is
// not part of the package, so the F it redeclares is no type error.
func TestCLIHonoursBuildConstraints(t *testing.T) {
	root := writeModule(t, map[string]string{
		"a.go":   "package probe\n\nfunc F() int { return 1 }\n",
		"gen.go": "//go:build ignore\n\npackage probe\n\nfunc F() int { return 2 }\n",
	})
	stdout, stderr, code := hhlint(t, t.TempDir(), "-C", root, "./...")
	if code != 0 || stdout != "" {
		t.Fatalf("exit %d, stdout %q, stderr %q; want exit 0 and no output", code, stdout, stderr)
	}
}

// TestCLILoadFailureExitsTwo: a type error in the module is a load failure:
// exit 2, nothing on stdout, and the failing file named on stderr.
func TestCLILoadFailureExitsTwo(t *testing.T) {
	root := writeModule(t, map[string]string{
		"bad.go": "package probe\n\nvar x int = \"s\"\n",
	})
	stdout, stderr, code := hhlint(t, t.TempDir(), "-C", root, "./...")
	if code != 2 || stdout != "" || !strings.HasPrefix(stderr, "hhlint: load:") || !strings.Contains(stderr, "bad.go") {
		t.Fatalf("exit %d, stdout %q, stderr %q; want exit 2 and an hhlint: load: message naming bad.go", code, stdout, stderr)
	}
}

// goModUpward reports whether a go.mod exists in dir or any parent.
func goModUpward(dir string) bool {
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return true
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return false
		}
		dir = parent
	}
}
