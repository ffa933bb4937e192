package analysis

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
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

// LoadModule parses and type-checks every package under the module rooted
// at dir (the directory containing go.mod), using only the standard
// library: module-internal imports resolve against the packages being
// loaded (in topological order) and everything else — the standard library
// — through importer "source", which type-checks GOROOT sources directly
// and therefore needs no pre-compiled export data.
//
// Test files (*_test.go), testdata directories, hidden and underscore
// directories are skipped: the passes target the shipped engine, and
// analyzing the module's own lint testdata would be circular.
func LoadModule(dir string) ([]*Package, error) {
	root, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}

	dirs, err := packageDirs(root)
	if err != nil {
		return nil, err
	}

	fset := token.NewFileSet()
	type rawPkg struct {
		path    string
		files   []*ast.File
		imports []string
	}

	// Parse every candidate directory concurrently; the shared FileSet is
	// safe for concurrent AddFile, and parsing is embarrassingly parallel.
	parsed := make([]*rawPkg, len(dirs))
	perr := make([]error, len(dirs))
	var wg sync.WaitGroup
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	for i, d := range dirs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			files, err := parseDir(fset, d)
			if err != nil {
				perr[i] = err
				return
			}
			if len(files) == 0 {
				return
			}
			rel, err := filepath.Rel(root, d)
			if err != nil {
				perr[i] = err
				return
			}
			path := modPath
			if rel != "." {
				path = modPath + "/" + filepath.ToSlash(rel)
			}
			parsed[i] = &rawPkg{path: path, files: files}
		}()
	}
	wg.Wait()
	raws := make(map[string]*rawPkg)
	for i, rp := range parsed {
		if perr[i] != nil {
			return nil, perr[i]
		}
		if rp == nil {
			continue
		}
		seen := map[string]bool{}
		for _, f := range rp.files {
			for _, imp := range f.Imports {
				p, err := strconv.Unquote(imp.Path.Value)
				if err != nil {
					continue
				}
				if (p == modPath || strings.HasPrefix(p, modPath+"/")) && !seen[p] {
					seen[p] = true
					rp.imports = append(rp.imports, p)
				}
			}
		}
		raws[rp.path] = rp
	}

	order, err := topoSort(raws, func(p string) []string { return raws[p].imports })
	if err != nil {
		return nil, err
	}

	// Type-check in topological wavefronts: level(p) = 1 + max(level of
	// module-internal deps), and every package of one level type-checks
	// concurrently (bounded by GOMAXPROCS) — its dependencies were resolved
	// by earlier levels. The stdlib source importer is not concurrency-safe,
	// so it is serialized behind a mutex; module-internal resolution is a
	// lock-guarded map lookup.
	level := make(map[string]int, len(order))
	maxLevel := 0
	for _, path := range order {
		l := 0
		for _, d := range raws[path].imports {
			if _, ok := raws[d]; ok && level[d]+1 > l {
				l = level[d] + 1
			}
		}
		level[path] = l
		if l > maxLevel {
			maxLevel = l
		}
	}

	imp := &moduleImporter{
		std:  &lockedImporter{inner: newStdImporter(fset)},
		mods: make(map[string]*types.Package, len(order)),
	}
	checked := make(map[string]*Package, len(order))
	var cmu sync.Mutex
	for l := 0; l <= maxLevel; l++ {
		var wave []string
		for _, path := range order {
			if level[path] == l {
				wave = append(wave, path)
			}
		}
		errs := make([]error, len(wave))
		var wwg sync.WaitGroup
		for i, path := range wave {
			wwg.Add(1)
			go func() {
				defer wwg.Done()
				sem <- struct{}{}
				defer func() { <-sem }()
				rp := raws[path]
				pkg, err := typeCheck(fset, path, rp.files, imp)
				if err != nil {
					errs[i] = fmt.Errorf("%s: %w", path, err)
					return
				}
				imp.add(path, pkg.Types)
				cmu.Lock()
				checked[path] = pkg
				cmu.Unlock()
			}()
		}
		wwg.Wait()
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
	}

	out := make([]*Package, 0, len(order))
	for _, path := range order {
		out = append(out, checked[path])
	}
	return out, nil
}

// LoadPackage parses and type-checks the single package in dir (used by the
// golden-file test harness for self-contained testdata packages). Imports
// resolve through the stdlib source importer only. The import path is the
// directory base name.
func LoadPackage(dir string) (*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	files, err := parseDir(fset, abs)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("analysis: no Go files in %s", dir)
	}
	pkg, err := typeCheck(fset, filepath.Base(abs), files, newStdImporter(fset))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", dir, err)
	}
	return pkg, nil
}

// parseDir parses every non-test .go file of one directory, in sorted
// order, with comments attached (suppressions and annotations live there).
func parseDir(fset *token.FileSet, dir string) ([]*ast.File, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range ents {
		n := e.Name()
		if e.IsDir() || !strings.HasSuffix(n, ".go") || strings.HasSuffix(n, "_test.go") ||
			strings.HasPrefix(n, ".") || strings.HasPrefix(n, "_") {
			continue
		}
		names = append(names, n)
	}
	sort.Strings(names)
	var files []*ast.File
	for _, n := range names {
		f, err := parser.ParseFile(fset, filepath.Join(dir, n), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
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

// moduleImporter resolves module-internal import paths against the already
// type-checked packages of this load and everything else against the
// stdlib source importer. Safe for concurrent use by wavefront
// type-checkers: mods is mutex-guarded, and writes only happen for packages
// whose dependents have not started checking yet.
type moduleImporter struct {
	std  types.ImporterFrom
	mu   sync.RWMutex
	mods map[string]*types.Package
}

func (m *moduleImporter) add(path string, pkg *types.Package) {
	m.mu.Lock()
	m.mods[path] = pkg
	m.mu.Unlock()
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	return m.ImportFrom(path, "", 0)
}

func (m *moduleImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	m.mu.RLock()
	p, ok := m.mods[path]
	m.mu.RUnlock()
	if ok {
		return p, nil
	}
	return m.std.ImportFrom(path, dir, mode)
}

// lockedImporter serializes a non-concurrency-safe importer (the go/types
// source importer documents itself as single-goroutine).
type lockedImporter struct {
	mu    sync.Mutex
	inner types.ImporterFrom
}

func (l *lockedImporter) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, "", 0)
}

func (l *lockedImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.inner.ImportFrom(path, dir, mode)
}

// newStdImporter builds the stdlib importer. The "source" compiler variant
// type-checks GOROOT sources, so it works on toolchains that ship no
// pre-compiled export data; it caches internally, so one instance is shared
// across the whole load.
func newStdImporter(fset *token.FileSet) types.ImporterFrom {
	return importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
}

// modulePath extracts the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			p := strings.TrimSpace(rest)
			p = strings.Trim(p, `"`)
			if p != "" {
				return p, nil
			}
		}
	}
	return "", fmt.Errorf("analysis: no module line in %s", gomod)
}

// packageDirs walks the module tree collecting candidate package
// directories, skipping hidden, underscore, vendor and testdata trees.
func packageDirs(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if p != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
			name == "testdata" || name == "vendor") {
			return filepath.SkipDir
		}
		dirs = append(dirs, p)
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	return dirs, nil
}

// topoSort orders package paths so every package follows its
// module-internal imports. Cycles are errors (they would be build errors
// anyway, but the message here is clearer than a type-check cascade).
func topoSort[T any](pkgs map[string]T, deps func(string) []string) ([]string, error) {
	names := make([]string, 0, len(pkgs))
	for p := range pkgs {
		names = append(names, p)
	}
	sort.Strings(names)
	const (
		unvisited = 0
		visiting  = 1
		done      = 2
	)
	state := make(map[string]int, len(pkgs))
	var order []string
	var visit func(string) error
	visit = func(p string) error {
		switch state[p] {
		case done:
			return nil
		case visiting:
			return fmt.Errorf("analysis: import cycle through %s", p)
		}
		state[p] = visiting
		ds := append([]string(nil), deps(p)...)
		sort.Strings(ds)
		for _, d := range ds {
			if _, ok := pkgs[d]; !ok {
				continue // not part of this load (stdlib or missing)
			}
			if err := visit(d); err != nil {
				return err
			}
		}
		state[p] = done
		order = append(order, p)
		return nil
	}
	for _, p := range names {
		if err := visit(p); err != nil {
			return nil, err
		}
	}
	return order, nil
}
