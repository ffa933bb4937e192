package analysis

import (
	"bytes"
	"encoding/json"
	"errors"
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
	"strings"
)

// Package is one parsed and type-checked package of the load.
type Package struct {
	// Path is the import path ("hhoudini/internal/sat"; testdata packages
	// use their directory base name).
	Path string
	// Fset is the FileSet shared by every package of one load.
	Fset *token.FileSet
	// Files are the parsed non-test sources, sorted by file name.
	Files []*ast.File
	// Types and Info are the go/types results for the package.
	Types *types.Package
	Info  *types.Info
}

// LoadModule parses and type-checks every package of the module rooted at
// dir (the directory containing go.mod). One `go list -deps -export` call
// names the packages, their build-constraint-filtered files and a
// dependency-first order; the module's packages are then type-checked from
// source in that order, and every other import is read from the export
// data the go command compiled for it.
//
// Test files (*_test.go), testdata directories, hidden and underscore
// directories are skipped (go list's ./... does so): the passes target the
// shipped engine, and analyzing the module's own lint testdata would be
// circular.
func LoadModule(dir string) ([]*Package, error) {
	root, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	// go list would otherwise resolve ./... inside an enclosing module.
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	list, imp, err := goList(fset, root, "./...")
	if err != nil {
		return nil, err
	}
	var out []*Package
	for _, lp := range list {
		if lp.DepOnly || len(lp.GoFiles) == 0 {
			continue
		}
		pkg, err := checkListed(fset, lp.ImportPath, lp, imp)
		if err != nil {
			return nil, err
		}
		imp.mods[lp.ImportPath] = pkg.Types
		out = append(out, pkg)
	}
	return out, nil
}

// LoadPackage parses and type-checks the single package in dir (used by the
// golden-file test harness for self-contained testdata packages). Its
// imports resolve through export data, like the standard library's in
// LoadModule. The import path is the directory base name.
func LoadPackage(dir string) (*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	list, imp, err := goList(fset, abs, ".")
	if err != nil {
		return nil, err
	}
	for _, lp := range list {
		if !lp.DepOnly {
			return checkListed(fset, filepath.Base(abs), lp, imp)
		}
	}
	return nil, fmt.Errorf("analysis: no Go files in %s", dir)
}

// listed is the part of one `go list -json` record the loader reads.
type listed struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	DepOnly    bool // a dependency the pattern did not match
}

// goList runs `go list -deps -export` on pattern in dir and returns its
// packages, dependencies first, with an importer that reads every listed
// package from its export data unless the load adds it to mods first.
func goList(fset *token.FileSet, dir, pattern string) ([]listed, *moduleImporter, error) {
	cmd := exec.Command("go", "list", "-deps", "-export",
		"-json=ImportPath,Dir,GoFiles,Export,DepOnly", pattern)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	stdout, err := cmd.Output()
	if err != nil {
		if msg := strings.TrimSpace(stderr.String()); msg != "" {
			return nil, nil, fmt.Errorf("go list: %s", msg)
		}
		return nil, nil, fmt.Errorf("go list: %w", err)
	}
	var list []listed
	exports := make(map[string]string)
	for dec := json.NewDecoder(bytes.NewReader(stdout)); ; {
		var lp listed
		if err := dec.Decode(&lp); errors.Is(err, io.EOF) {
			break
		} else if err != nil {
			return nil, nil, fmt.Errorf("go list: %w", err)
		}
		list = append(list, lp)
		exports[lp.ImportPath] = lp.Export
	}
	lookup := func(path string) (io.ReadCloser, error) {
		if exports[path] == "" {
			return nil, fmt.Errorf("analysis: no export data for %q", path)
		}
		return os.Open(exports[path])
	}
	imp := &moduleImporter{
		mods:   make(map[string]*types.Package),
		export: importer.ForCompiler(fset, "gc", lookup),
	}
	return list, imp, nil
}

// checkListed parses one listed package's files, in go list's (sorted)
// order with comments attached (suppressions and annotations live there),
// and type-checks them as package path.
func checkListed(fset *token.FileSet, path string, lp listed, imp types.Importer) (*Package, error) {
	files := make([]*ast.File, 0, len(lp.GoFiles))
	for _, name := range lp.GoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(lp.Dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	pkg, err := typeCheck(fset, path, files, imp)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return pkg, nil
}

// typeCheck runs go/types over one package's files.
func typeCheck(fset *token.FileSet, path string, files []*ast.File, imp types.Importer) (*Package, error) {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	var errs []error
	conf := types.Config{
		Importer: imp,
		Error:    func(err error) { errs = append(errs, err) },
	}
	tpkg, _ := conf.Check(path, fset, files, info)
	if len(errs) > 0 {
		// Report the first few errors; a broken tree should fail loudly.
		msg := make([]string, 0, 3)
		for i, e := range errs {
			if i == 3 {
				msg = append(msg, fmt.Sprintf("... and %d more", len(errs)-3))
				break
			}
			msg = append(msg, e.Error())
		}
		return nil, fmt.Errorf("type errors:\n\t%s", strings.Join(msg, "\n\t"))
	}
	return &Package{Path: path, Fset: fset, Files: files, Types: tpkg, Info: info}, nil
}

// moduleImporter resolves the packages this load has type-checked from
// source to their results and every other import path to the export data
// go list named for it.
type moduleImporter struct {
	mods   map[string]*types.Package
	export types.Importer
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	if p, ok := m.mods[path]; ok {
		return p, nil
	}
	return m.export.Import(path)
}
