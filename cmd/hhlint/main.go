// Command hhlint runs the repository's static-analysis pass suite
// (internal/analysis) over the whole module and reports invariant
// violations in the conventional `file:line:col: [pass] message` form,
// with paths relative to the module root.
//
// Usage:
//
//	hhlint [-C dir] [-list] [-v] [./...]
//
// hhlint always analyzes the full module rooted at -C (default: the
// nearest go.mod at or above the working directory); the optional `./...`
// argument is accepted for familiarity. -list prints the registered passes
// and exits; -v reports pass/package counts and wall time to stderr.
//
// Exit-code contract (stable; CI and the Makefile depend on it):
//
//	0  the module is clean — no findings
//	1  at least one finding was reported
//	2  usage error or load/type-check failure; diagnostics on stderr
//
// Suppress a finding in source with `//hhlint:ignore <pass> <reason>`
// (line-scoped; the reason is mandatory). See DESIGN.md §Static analysis.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"hhoudini/internal/analysis"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		flagDir  = flag.String("C", "", "module root to analyze (default: nearest go.mod upward from cwd)")
		flagList = flag.Bool("list", false, "list registered passes and exit")
		flagV    = flag.Bool("v", false, "report pass/package counts and wall time to stderr")
	)
	flag.Parse()
	for _, arg := range flag.Args() {
		if arg != "./..." && arg != "..." {
			fmt.Fprintf(os.Stderr, "hhlint: only the ./... pattern is supported (got %q)\n", arg)
			return 2
		}
	}

	passes := analysis.DefaultPasses()
	if *flagList {
		for _, p := range passes {
			fmt.Printf("%-16s %s\n", p.Name, p.Doc)
		}
		return 0
	}

	// The FileSet records absolute paths, so the root must be absolute for
	// findings to print relative to it.
	var root string
	var err error
	if *flagDir != "" {
		root, err = filepath.Abs(*flagDir)
	} else {
		root, err = findModuleRoot()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "hhlint: %v\n", err)
		return 2
	}

	start := time.Now()
	pkgs, err := analysis.LoadModule(root)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hhlint: load: %v\n", err)
		return 2
	}
	diags := analysis.Run(pkgs, passes)
	if *flagV {
		fmt.Fprintf(os.Stderr, "hhlint: %d passes over %d packages in %v: %d finding(s)\n",
			len(passes), len(pkgs), time.Since(start).Round(time.Millisecond), len(diags))
	}

	// Render paths relative to the module root: stable across machines and
	// what CI log matchers expect.
	for _, d := range diags {
		if rel, err := filepath.Rel(root, d.File); err == nil {
			d.File = rel
		}
		fmt.Println(d.String())
	}
	if len(diags) > 0 {
		return 1
	}
	return 0
}

// findModuleRoot walks upward from the working directory to the nearest
// go.mod.
func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found upward from working directory")
		}
		dir = parent
	}
}
