#!/bin/sh
# size: non-test Go lines per package (one line per directory), then their
# total outside bench/ — the count ROADMAP's *Size* bullet and its item 13
# quote. Fixtures under a testdata/ directory (the analyzers' test inputs)
# are not the system and are not counted. Counts the files git tracks, so a
# new file counts once it is added; given a directory instead (a
# `git archive` of some commit, say), counts every Go file under it.
#
#   scripts/size.sh [dir]    (= make size)
set -eu
if [ $# -gt 0 ]; then
	cd "$1"
	files() { find . -name '*.go' | sed 's|^\./||'; }
else
	cd "$(dirname "$0")/.."
	files() { git ls-files '*.go'; }
fi

files | grep -v -e '_test\.go$' -e '\(^\|/\)testdata/' | while read -r f; do
	echo "$(dirname "$f") $(wc -l <"$f")"
done | awk '
	{ lines[$1] += $2; if ($1 != "bench" && $1 !~ /^bench\//) total += $2 }
	END {
		for (p in lines) printf "%6d %s\n", lines[p], p | "sort -k2"
		close("sort -k2")
		printf "%6d total outside bench/\n", total
	}'
