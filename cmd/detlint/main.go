// Command detlint is a vet-style determinism lint for the repository's hot
// paths. It fails on `for ... range` statements over map-typed expressions
// in the named packages: map iteration order is randomized per run, so a
// map range in the executor, storage, serving or re-planning path can
// silently break the byte-identity the equivalence suites enforce: results,
// work charges, checkpoint sequences and re-planned plans identical to the
// reference evaluator and to the pinned golden values, run after run.
//
// Usage:
//
//	detlint [-root dir] [packages...]
//
// Packages are module-relative directories; the default set is the hot
// paths: internal/exec, internal/storage, internal/server, and the
// re-planning path internal/reopt and internal/engine. Test files are
// skipped (tests may iterate maps to build fixtures). A finding is
// suppressed by a `//detlint:ignore <why>` comment on the range statement's
// line or the line directly above — the escape hatch for ranges whose body
// is genuinely order-independent (sorted immediately after, writes into
// another map, deletes during a sweep).
//
// The analyzer type-checks from source with no external dependencies: a
// minimal module-aware importer resolves the repository's own packages
// against the module root and everything else against GOROOT (including
// the stdlib's vendored imports), so it runs in CI with nothing but the
// toolchain. Exit status 0 when clean, 1 on findings, 2 on usage or
// analysis errors.
package main

import (
	"flag"
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// defaultTargets are the hot-path packages where map-range nondeterminism
// can leak into query results, observable execution order, or the plans
// re-optimization chooses.
var defaultTargets = []string{"internal/exec", "internal/storage", "internal/server", "internal/reopt", "internal/engine"}

func main() {
	root := flag.String("root", "", "module root directory (default: walk up from cwd to go.mod)")
	flag.Parse()
	targets := flag.Args()
	if len(targets) == 0 {
		targets = defaultTargets
	}

	modDir := *root
	if modDir == "" {
		var err error
		modDir, err = findModuleRoot()
		if err != nil {
			fatal(err)
		}
	}
	modPath, err := modulePath(filepath.Join(modDir, "go.mod"))
	if err != nil {
		fatal(err)
	}

	findings, err := analyze(modDir, modPath, targets)
	if err != nil {
		fatal(err)
	}
	for _, f := range findings {
		fmt.Println(f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "detlint: %d unordered map range(s) in hot paths\n", len(findings))
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "detlint:", err)
	os.Exit(2)
}

// findModuleRoot walks up from the working directory to the enclosing
// go.mod, mirroring the go tool's main-module discovery.
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
			return "", fmt.Errorf("no go.mod found above working directory")
		}
		dir = parent
	}
}

// modulePath reads the module path from the first `module` directive.
func modulePath(gomod string) (string, error) {
	raw, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("%s: no module directive", gomod)
}

// finding is one diagnosed map range, formatted as file:line: message.
type finding struct {
	pos token.Position
	typ string
}

func (f finding) String() string {
	// Report paths relative to the module root when possible, so CI logs
	// are stable across checkouts.
	return fmt.Sprintf("%s:%d: range over %s is unordered; iterate a sorted key slice or add //detlint:ignore with a justification",
		f.pos.Filename, f.pos.Line, f.typ)
}

// analyze type-checks each target package and collects map-range findings.
func analyze(modDir, modPath string, targets []string) ([]finding, error) {
	imp := newImporter(modDir, modPath)
	var findings []finding
	for _, target := range targets {
		pkgPath := modPath + "/" + filepath.ToSlash(target)
		files, err := imp.parseDir(filepath.Join(modDir, target))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", target, err)
		}
		info := &types.Info{Types: make(map[ast.Expr]types.TypeAndValue)}
		conf := types.Config{Importer: imp, FakeImportC: true}
		if _, err := conf.Check(pkgPath, imp.fset, files, info); err != nil {
			return nil, fmt.Errorf("typecheck %s: %w", target, err)
		}
		for _, file := range files {
			ignored := ignoreLines(imp.fset, file)
			ast.Inspect(file, func(n ast.Node) bool {
				rng, ok := n.(*ast.RangeStmt)
				if !ok {
					return true
				}
				tv, ok := info.Types[rng.X]
				if !ok || tv.Type == nil {
					return true
				}
				if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
					return true
				}
				pos := imp.fset.Position(rng.Pos())
				if ignored[pos.Line] || ignored[pos.Line-1] {
					return true
				}
				if rel, err := filepath.Rel(modDir, pos.Filename); err == nil {
					pos.Filename = filepath.ToSlash(rel)
				}
				findings = append(findings, finding{pos: pos, typ: tv.Type.String()})
				return true
			})
		}
	}
	sort.Slice(findings, func(i, j int) bool {
		if findings[i].pos.Filename != findings[j].pos.Filename {
			return findings[i].pos.Filename < findings[j].pos.Filename
		}
		return findings[i].pos.Line < findings[j].pos.Line
	})
	return findings, nil
}

// ignoreLines returns the set of lines carrying a detlint:ignore directive.
func ignoreLines(fset *token.FileSet, file *ast.File) map[int]bool {
	lines := make(map[int]bool)
	for _, group := range file.Comments {
		for _, c := range group.List {
			if strings.Contains(c.Text, "detlint:ignore") {
				lines[fset.Position(c.Pos()).Line] = true
			}
		}
	}
	return lines
}

// importer is a minimal module-aware source importer: the repository's own
// import paths resolve against the module root, everything else against
// GOROOT/src (with the stdlib's internal vendor directory as fallback).
// Packages are type-checked from source recursively and memoized; cgo is
// disabled so package selection picks the pure-Go fallbacks.
type importer struct {
	ctxt    build.Context
	fset    *token.FileSet
	modDir  string
	modPath string
	pkgs    map[string]*types.Package
}

func newImporter(modDir, modPath string) *importer {
	ctxt := build.Default
	ctxt.CgoEnabled = false
	return &importer{
		ctxt: ctxt, fset: token.NewFileSet(),
		modDir: modDir, modPath: modPath,
		pkgs: make(map[string]*types.Package),
	}
}

func (im *importer) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if pkg, ok := im.pkgs[path]; ok {
		if pkg == nil {
			return nil, fmt.Errorf("import cycle through %q", path)
		}
		return pkg, nil
	}
	im.pkgs[path] = nil // in-progress marker for cycle detection
	dir, err := im.dirFor(path)
	if err != nil {
		return nil, err
	}
	files, err := im.parseDir(dir)
	if err != nil {
		return nil, fmt.Errorf("import %q: %w", path, err)
	}
	conf := types.Config{Importer: im, FakeImportC: true}
	pkg, err := conf.Check(path, im.fset, files, nil)
	if err != nil {
		return nil, fmt.Errorf("import %q: %w", path, err)
	}
	im.pkgs[path] = pkg
	return pkg, nil
}

// dirFor maps an import path to its source directory.
func (im *importer) dirFor(path string) (string, error) {
	if path == im.modPath {
		return im.modDir, nil
	}
	if rest, ok := strings.CutPrefix(path, im.modPath+"/"); ok {
		return filepath.Join(im.modDir, filepath.FromSlash(rest)), nil
	}
	std := filepath.Join(im.ctxt.GOROOT, "src", filepath.FromSlash(path))
	if _, err := os.Stat(std); err == nil {
		return std, nil
	}
	// The stdlib's own golang.org/x/... imports live under src/vendor.
	vendored := filepath.Join(im.ctxt.GOROOT, "src", "vendor", filepath.FromSlash(path))
	if _, err := os.Stat(vendored); err == nil {
		return vendored, nil
	}
	return "", fmt.Errorf("cannot resolve import %q (not in module %s or GOROOT)", path, im.modPath)
}

// parseDir parses a package directory's non-test Go files under the
// build-tag selection of the host toolchain (cgo off).
func (im *importer) parseDir(dir string) ([]*ast.File, error) {
	bp, err := im.ctxt.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	names := append([]string(nil), bp.GoFiles...)
	sort.Strings(names)
	files := make([]*ast.File, 0, len(names))
	for _, name := range names {
		f, err := parser.ParseFile(im.fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}
