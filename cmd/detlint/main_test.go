package main

import (
	"bufio"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

func repoRoot(t *testing.T) (string, string) {
	t.Helper()
	dir, err := findModuleRoot()
	if err != nil {
		t.Fatal(err)
	}
	path, err := modulePath(filepath.Join(dir, "go.mod"))
	if err != nil {
		t.Fatal(err)
	}
	return dir, path
}

// wantLines scans a fixture for "want finding" markers and returns the
// marked line numbers.
func wantLines(t *testing.T, file string) map[int]bool {
	t.Helper()
	f, err := os.Open(file)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := make(map[int]bool)
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		if strings.Contains(sc.Text(), "want finding") {
			want[line] = true
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}

// TestAnalyzeFixture pins the analyzer against the testdata package: every
// marked map range is found (including through named map types), ignore
// directives suppress, slice ranges and _test.go files produce nothing.
func TestAnalyzeFixture(t *testing.T) {
	modDir, modPath := repoRoot(t)
	target := filepath.Join("cmd", "detlint", "testdata", "hotpath")
	findings, err := analyze(modDir, modPath, []string{target})
	if err != nil {
		t.Fatal(err)
	}
	want := wantLines(t, filepath.Join(modDir, target, "hotpath.go"))
	if len(findings) != len(want) {
		t.Fatalf("got %d findings, want %d:\n%v", len(findings), len(want), findings)
	}
	for _, f := range findings {
		if !strings.HasSuffix(f.pos.Filename, "hotpath.go") {
			t.Errorf("finding in unexpected file: %v", f)
		}
		if !want[f.pos.Line] {
			t.Errorf("unexpected finding at line %d: %v", f.pos.Line, f)
		}
	}
}

// TestHotPathsClean is the lint itself as a regression test: the real
// hot-path packages must stay free of unordered map ranges (modulo
// justified ignore directives).
func TestHotPathsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the stdlib closure from source; skipped in -short")
	}
	modDir, modPath := repoRoot(t)
	findings, err := analyze(modDir, modPath, defaultTargets)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("%v", f)
	}
}

// TestDefaultsCoverReplanning: the re-planning path is linted by default,
// so TestHotPathsClean and the CI step hold it to the same rule as the
// executor. The overlay's ratio pick and the controller's Release range over
// maps under justified ignores.
func TestDefaultsCoverReplanning(t *testing.T) {
	for _, pkg := range []string{"internal/reopt", "internal/engine"} {
		if !slices.Contains(defaultTargets, pkg) {
			t.Errorf("default targets %v lack %s", defaultTargets, pkg)
		}
	}
}
