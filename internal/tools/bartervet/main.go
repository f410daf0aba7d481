// Command bartervet enforces the engine determinism contract as part of
// `make lint`: the ROADMAP's rule that inside the deterministic packages no
// behavior may depend on map iteration order, pointer values, or wall time —
// the invariant behind byte-identical TSV for the same seed at any
// -parallel — plus the mediator-tier rule that durability-path I/O errors
// must never be swallowed, the rule that internal/ holds nothing the program
// does not use, and the rule that every package and export is documented.
//
// Usage:
//
//	bartervet [-checks maprange,walltime,ptrorder,unchecked-io,deadcode,doc] dir [dir...]
//
// Each argument is walked recursively for Go packages (testdata trees are
// skipped; a directory under two arguments is loaded once) and every package
// found is parsed and type-checked from source —
// go/parser + go/types via the stdlib source importer, so the module stays
// dependency-free and the tool runs hermetically under `go run`. The checks:
//
//   - maprange: a range over a map-typed value is an error unless the loop
//     only collects the keys into a slice that is sorted immediately after
//     (the canonical collect-and-sort idiom), because iteration order feeds
//     RNG draws and output order.
//   - walltime: time.Now, time.Since, time.Sleep and friends, and the
//     top-level math/rand functions that draw from the shared unseeded
//     global source, are forbidden. Seeded locals via rand.New(rand.
//     NewSource(...)) are fine. This check alone also covers _test.go
//     files: a test that reads the wall clock or the global source is a
//     flaky test.
//   - ptrorder: converting a pointer to uintptr, taking reflect pointer
//     identity, or formatting with %p — pointer values change run to run,
//     so any of them feeding an output or an ordering re-randomizes it.
//   - unchecked-io: a dropped error from Write/WriteString/Sync/Flush/Close
//     on the mediator WAL and codec paths, where a swallowed error is lost
//     durability. `_ = x.Close()` is accepted as an explicit, visible
//     decision; dropped write/sync errors and bare or deferred Closes are
//     not. Never-failing writers (bytes.Buffer, strings.Builder) are
//     exempt.
//   - deadcode: a package under internal/ (internal/tools excepted) that no
//     other loaded package imports, test imports included; and an exported
//     package-level func, type, var or const under internal/
//     (internal/testutil excepted too), or an exported method there whose
//     name no interface visible to the loaded units declares (their own,
//     error, and their imports'), that no loaded non-test file references.
//     Every unit is loaded before any is checked, so the roots decide whose
//     uses count: `make lint` loads ./internal ./cmd, the program alone.
//   - doc: a package without a package doc comment, and an exported
//     declaration of a non-test file without a doc comment, except a
//     method whose name an interface visible to the loaded units declares.
//
// A finding is silenced by a waiver comment on the flagged line or the line
// above:
//
//	//barter:allow <check> <reason>
//
// The reason is mandatory; a malformed waiver or one that no finding uses
// is itself an error, so the waiver inventory stays auditable and cannot
// rot. Diagnostics are listed one per line and the exit status is nonzero,
// so a contract regression fails the lint target instead of silently
// re-randomizing results.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// checkNames lists every analyzer in the order reports group naturally.
var checkNames = []string{"maprange", "walltime", "ptrorder", "unchecked-io", "deadcode", "doc"}

// analyzers maps a check name to its implementation. Each analyzer walks
// one type-checked unit and reports findings through the diags collector.
var analyzers = map[string]func(*unit, *diags){
	"maprange":     checkMapRange,
	"walltime":     checkWallTime,
	"ptrorder":     checkPtrOrder,
	"unchecked-io": checkUncheckedIO,
	"deadcode":     checkDeadcode,
	"doc":          checkDoc,
}

func main() {
	checksFlag := flag.String("checks", strings.Join(checkNames, ","), "comma-separated checks to run")
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: bartervet [-checks list] dir [dir...]")
		os.Exit(2)
	}
	checks, err := parseChecks(*checksFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bartervet:", err)
		os.Exit(2)
	}
	problems, err := run(newLoader(), checks, flag.Args())
	if err != nil {
		fmt.Fprintln(os.Stderr, "bartervet:", err)
		os.Exit(2)
	}
	if len(problems) > 0 {
		for _, p := range problems {
			fmt.Println(p)
		}
		fmt.Fprintf(os.Stderr, "bartervet: %d contract violations\n", len(problems))
		os.Exit(1)
	}
}

// parseChecks validates the -checks list against the known analyzers.
func parseChecks(list string) ([]string, error) {
	var checks []string
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		if analyzers[name] == nil {
			return nil, fmt.Errorf("unknown check %q (have %s)", name, strings.Join(checkNames, ", "))
		}
		checks = append(checks, name)
	}
	if len(checks) == 0 {
		return nil, fmt.Errorf("no checks selected")
	}
	return checks, nil
}

// run loads every package under the given roots through l, applies the
// selected checks, and returns the formatted, waiver-filtered findings sorted
// by position. Runs that share a loader type-check each dependency once.
func run(l *loader, checks []string, roots []string) ([]string, error) {
	var units []*unit
	seen := map[string]bool{}
	for _, root := range roots {
		dirs, err := goDirs(root)
		if err != nil {
			return nil, err
		}
		for _, dir := range dirs {
			abs, err := filepath.Abs(dir)
			if err != nil {
				return nil, err
			}
			if seen[abs] {
				continue // under two roots: check it once
			}
			seen[abs] = true
			us, err := l.load(dir)
			if err != nil {
				return nil, err
			}
			units = append(units, us...)
		}
	}
	uses := indexUses(units)
	var problems []string
	for _, u := range units {
		u.uses = uses
		d := newDiags(u, checks)
		for _, name := range checks {
			d.check = name
			analyzers[name](u, d)
		}
		problems = append(problems, d.report()...)
	}
	sort.Strings(problems)
	return problems, nil
}
