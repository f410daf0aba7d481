#!/bin/sh
# size: non-test Go lines per package (one line per directory), then their
# total outside bench/ — the count ROADMAP's *Size* bullet and its item 13
# quote. Counts the files git tracks, so a new file counts once it is added.
#
#   scripts/size.sh    (= make size)
set -eu
cd "$(dirname "$0")/.."

git ls-files '*.go' | grep -v '_test\.go$' | while read -r f; do
	echo "$(dirname "$f") $(wc -l <"$f")"
done | awk '
	{ lines[$1] += $2; if ($1 != "bench" && $1 !~ /^bench\//) total += $2 }
	END {
		for (p in lines) printf "%6d %s\n", lines[p], p | "sort -k2"
		close("sort -k2")
		printf "%6d total outside bench/\n", total
	}'
