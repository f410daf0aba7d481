package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

// check runs doccheck over one testdata package and returns its exit status
// and the violation lines it printed.
func check(t *testing.T, args ...string) (int, []string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	var lines []string
	if out := strings.TrimRight(stdout.String(), "\n"); out != "" {
		lines = strings.Split(out, "\n")
	}
	return code, lines
}

// TestUndocumentedExportsReported: one undocumented exported symbol of each
// kind is reported by name, and nothing else is — unexported symbols,
// methods on unexported types, members with their own comment and symbols
// in _test.go files are not the lint's business.
func TestUndocumentedExportsReported(t *testing.T) {
	dir := filepath.Join("testdata", "undocumented")
	code, lines := check(t, "-exported", dir)
	if code != 1 {
		t.Errorf("exit status = %d, want 1", code)
	}
	want := []string{
		"package undocumented has no package doc comment",
		"exported function Func has no doc comment",
		"exported type Type has no doc comment",
		"exported method Type.Method has no doc comment",
		"exported method Type.PtrMethod has no doc comment",
		"exported type Generic has no doc comment",
		"exported method Generic.Method has no doc comment",
		"exported const Const has no doc comment",
		"exported var Var has no doc comment",
		"exported var GroupedVar has no doc comment",
	}
	for _, w := range want {
		found := 0
		for _, l := range lines {
			if strings.HasPrefix(l, dir) && strings.HasSuffix(l, w) {
				found++
			}
		}
		if found != 1 {
			t.Errorf("%q reported %d times, want once", w, found)
		}
	}
	if len(lines) != len(want) {
		t.Errorf("%d violations, want %d:\n%s", len(lines), len(want), strings.Join(lines, "\n"))
	}
}

// TestPackageDocOnlyWithoutExportedFlag: without -exported only the missing
// package comment is a violation.
func TestPackageDocOnlyWithoutExportedFlag(t *testing.T) {
	code, lines := check(t, filepath.Join("testdata", "undocumented"))
	if code != 1 || len(lines) != 1 || !strings.HasSuffix(lines[0], "package undocumented has no package doc comment") {
		t.Errorf("exit %d, output %q; want exit 1 and the package-doc violation alone", code, lines)
	}
}

func TestDocumentedPackagePasses(t *testing.T) {
	code, lines := check(t, "-exported", filepath.Join("testdata", "documented"))
	if code != 0 || len(lines) != 0 {
		t.Errorf("exit %d, output %q; want exit 0 and no output", code, lines)
	}
}

// TestTestdataTreesSkipped: walking from this package's own directory must
// not descend into testdata, or `make lint` would trip over the seeded
// violations above.
func TestTestdataTreesSkipped(t *testing.T) {
	if code, lines := check(t, "-exported", "."); code != 0 {
		t.Errorf("exit %d walking the doccheck package itself:\n%s", code, strings.Join(lines, "\n"))
	}
}

func TestUsageErrors(t *testing.T) {
	if code, _ := check(t); code != 2 {
		t.Errorf("no arguments: exit %d, want 2", code)
	}
	if code, _ := check(t, filepath.Join("testdata", "no-such-dir")); code != 2 {
		t.Errorf("missing directory: exit %d, want 2", code)
	}
}
