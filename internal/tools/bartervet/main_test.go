package main

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// update regenerates the golden files from current analyzer output:
//
//	go test ./internal/tools/bartervet -run TestGolden -update
//
// Regenerate deliberately — the goldens are the spec for what each analyzer
// must flag, including every seeded violation in the testdata packages.
var update = flag.Bool("update", false, "rewrite golden files from current output")

// TestGolden runs each analyzer over its seeded testdata package and
// compares the full diagnostic list against the committed golden file. If a
// seeded violation is reintroduced into an analyzer's blind spot — or a
// false positive creeps in — the diff names it line by line.
func TestGolden(t *testing.T) {
	cases := []struct {
		dir   string // testdata package, also names the golden file
		check string
	}{
		{"maprange", "maprange"},
		{"walltime", "walltime"},
		{"ptrorder", "ptrorder"},
		{"uncheckedio", "unchecked-io"},
		{"deadcode", "deadcode"},
		// The waiver machinery itself: malformed and stale waivers are
		// findings no matter which analyzer runs.
		{"waivers", "maprange"},
	}
	for _, tc := range cases {
		t.Run(tc.dir, func(t *testing.T) {
			got, err := run(newLoader(), []string{tc.check}, []string{filepath.Join("testdata", tc.dir)})
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			goldenPath := filepath.Join("testdata", tc.dir+".golden")
			if *update {
				if err := os.WriteFile(goldenPath, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			raw, err := os.ReadFile(goldenPath)
			if err != nil {
				t.Fatalf("missing golden (run with -update to create): %v", err)
			}
			want := strings.Split(strings.TrimRight(string(raw), "\n"), "\n")
			if len(raw) == 0 {
				want = nil
			}
			if diff := diffLines(want, got); diff != "" {
				t.Errorf("diagnostics differ from %s (re-run with -update if intended):\n%s", goldenPath, diff)
			}
		})
	}
}

// diffLines reports golden lines that vanished and new lines the golden
// does not expect; both inputs are sorted. Counted, not set-based, so a
// line expected twice (two findings on one source line) and produced once
// still diffs.
func diffLines(want, got []string) string {
	counts := make(map[string]int, len(want))
	for _, w := range want {
		counts[w]++
	}
	var b strings.Builder
	for _, g := range got {
		if counts[g] > 0 {
			counts[g]--
			continue
		}
		b.WriteString("+ " + g + "\n")
	}
	for _, w := range want {
		if counts[w] > 0 {
			counts[w]--
			b.WriteString("- " + w + "\n")
		}
	}
	return b.String()
}

// TestUndocumentedExportsReported: the doc check reports the missing
// package comment and one undocumented exported declaration of each kind,
// exported methods of unexported types included, and nothing else —
// unexported symbols, members with their own comment, methods an interface
// declares (Type.String, Type.Size) and _test.go files are not its business.
func TestUndocumentedExportsReported(t *testing.T) {
	dir := filepath.Join("testdata", "doc", "undocumented")
	got, err := run(newLoader(), []string{"doc"}, []string{dir})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	file := filepath.Join(dir, "undocumented.go")
	var want []string
	for _, w := range []string{
		"1: doc: package undocumented has no package doc comment",
		"5: doc: exported func Func has no doc comment",
		"7: doc: exported type Type has no doc comment",
		"9: doc: exported method Method has no doc comment",
		"11: doc: exported method PtrMethod has no doc comment",
		"21: doc: exported type Generic has no doc comment",
		"23: doc: exported method Method has no doc comment",
		"25: doc: exported const Const has no doc comment",
		"27: doc: exported var Var has no doc comment",
		"30: doc: exported var GroupedVar has no doc comment",
		"42: doc: exported method Undocumented has no doc comment",
	} {
		want = append(want, file+":"+w)
	}
	if diff := diffLines(want, got); diff != "" {
		t.Errorf("doc findings differ:\n%s", diff)
	}
}

// TestDocumentedPackagePasses: a package whose every exported declaration
// carries a comment, directly or through its block's, yields no finding.
func TestDocumentedPackagePasses(t *testing.T) {
	got, err := run(newLoader(), []string{"doc"}, []string{filepath.Join("testdata", "doc", "documented")})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(got) != 0 {
		t.Errorf("documented package reported:\n%s", strings.Join(got, "\n"))
	}
}

// TestParseChecks pins the -checks flag contract.
func TestParseChecks(t *testing.T) {
	if _, err := parseChecks("maprange,unchecked-io"); err != nil {
		t.Fatalf("valid list rejected: %v", err)
	}
	if _, err := parseChecks("maprage"); err == nil {
		t.Fatal("typo'd check accepted")
	}
	if _, err := parseChecks(" , "); err == nil {
		t.Fatal("empty list accepted")
	}
}

// TestMissingRootErrors: a root that does not exist is an error, not a
// clean run over nothing.
func TestMissingRootErrors(t *testing.T) {
	if _, err := run(newLoader(), []string{"doc"}, []string{filepath.Join("testdata", "no-such-dir")}); err == nil {
		t.Fatal("missing directory accepted")
	}
}

// TestDeterministicPackagesAreClean runs the exact configuration `make
// lint` runs, so the contract gate is part of the test suite too: the tree
// must hold zero unwaived violations and zero stale waivers.
func TestDeterministicPackagesAreClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole tree from source; run without -short")
	}
	// One loader for the four runs: the standard library and the module
	// type-check once.
	l := newLoader()
	root := filepath.Join("..", "..", "..")
	var args []string
	for _, p := range deterministicPackages {
		args = append(args, filepath.Join(root, p))
	}
	if got, err := run(l, []string{"maprange", "walltime", "ptrorder"}, args); err != nil {
		t.Fatalf("run: %v", err)
	} else if len(got) > 0 {
		t.Errorf("determinism contract violated:\n%s", strings.Join(got, "\n"))
	}
	ioArgs := []string{filepath.Join(root, "internal/mediator"), filepath.Join(root, "internal/protocol")}
	if got, err := run(l, []string{"unchecked-io"}, ioArgs); err != nil {
		t.Fatalf("run: %v", err)
	} else if len(got) > 0 {
		t.Errorf("unchecked-io contract violated:\n%s", strings.Join(got, "\n"))
	}
	progArgs := []string{filepath.Join(root, "internal"), filepath.Join(root, "cmd")}
	if got, err := run(l, []string{"deadcode"}, progArgs); err != nil {
		t.Fatalf("run: %v", err)
	} else if len(got) > 0 {
		t.Errorf("internal/ packages without an importer or exports without a non-test user:\n%s", strings.Join(got, "\n"))
	}
	docArgs := append(progArgs, filepath.Join(root, "examples"), root)
	if got, err := run(l, []string{"doc"}, docArgs); err != nil {
		t.Fatalf("run: %v", err)
	} else if len(got) > 0 {
		t.Errorf("undocumented packages or exports:\n%s", strings.Join(got, "\n"))
	}
}

// deterministicPackages mirrors the allowlist in the Makefile's bartervet
// target and docs/DETERMINISM.md.
var deterministicPackages = []string{
	"internal/sim", "internal/eventq", "internal/index", "internal/core",
	"internal/credit", "internal/strategy", "internal/workload",
	"internal/experiment", "internal/runner", "internal/rng", "internal/metrics",
}
