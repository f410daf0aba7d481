#!/bin/sh
# docs-check: the ROADMAP quickstart must not drift ahead of the CLIs.
# Every `go run ./cmd/...` line it advertises is smoke-run — `-h` for each
# distinct command, plus every `-list` line verbatim — and must exit 0;
# every -flag such a line passes must be one the command's -h defines;
# the scenarios docs/ARCHITECTURE.md lists must be the ones `exchswarm -list`
# prints; every program under examples/ must run to completion; and every
# committed BENCH_*.json trajectory point must still be readable by the
# harness; a golden figure the last commit moved must be named in the
# first line of CHANGES.md; and so must the non-test line total outside
# bench/, before and after, if the last commit grew it.
set -eu
cd "$(dirname "$0")/.."

status=0
cmds=$(grep -o 'go run \./cmd/[a-z]*' ROADMAP.md | awk '{print $3}' | sort -u)
if [ -z "$cmds" ]; then
	echo "docs-check: no 'go run ./cmd/...' lines found in ROADMAP.md" >&2
	exit 1
fi
for c in $cmds; do
	if usage=$(go run "$c" -h 2>&1); then
		echo "ok   $c -h"
	else
		echo "FAIL $c -h (quickstart advertises a command that rejects -h)"
		status=1
		continue
	fi
	# A quickstart line naming a removed flag would still pass -h and -list;
	# the flag package prints each defined flag as "  -name ..." in -h.
	flags=$(grep "^go run $c " ROADMAP.md | sed 's/#.*//' | tr ' ' '\n' | grep '^-[a-z]' | sort -u)
	for f in $flags; do
		if printf '%s\n' "$usage" | grep -q "^  $f\([[:space:]]\|\$\)"; then
			echo "ok   $c $f"
		else
			echo "FAIL $c $f (quickstart passes a flag that $c -h does not define)"
			status=1
		fi
	done
done

# -list lines are cheap and their output is what the docs tell users to
# start from, so run those exactly as written.
lists=$(grep -o '^go run \./cmd/[a-z]* -list' ROADMAP.md | awk '{print $3}' | sort -u)
for c in $lists; do
	if go run "$c" -list >/dev/null 2>&1; then
		echo "ok   $c -list"
	else
		echo "FAIL $c -list"
		status=1
	fi
done

# The package map names every swarm scenario; a scenario added or retired
# without the row following is the drift this script exists to catch.
listed=$(go run ./cmd/exchswarm -list | sort | tr '\n' ' ')
documented=$(grep '^| `internal/swarm` |' docs/ARCHITECTURE.md | sed 's/.*scenarios (\([^)]*\)).*/\1/' | tr -d ' ' | tr ',' '\n' | sort | tr '\n' ' ')
if [ "$listed" = "$documented" ]; then
	echo "ok   docs/ARCHITECTURE.md scenario list = exchswarm -list"
else
	echo "FAIL docs/ARCHITECTURE.md lists scenarios [ $documented] but exchswarm -list prints [ $listed]"
	status=1
fi

# The examples are documentation too, and nothing else executes them.
for d in examples/*/; do
	if go run "./$d" >/dev/null 2>&1; then
		echo "ok   ./$d"
	else
		echo "FAIL ./$d (example exits nonzero)"
		status=1
	fi
done

# A trajectory point the harness cannot read is not a point. Comparing a
# file with itself exits 0 exactly when it parses and names a workload.
for f in BENCH_*.json; do
	if go run ./bench -compare "$f" "$f" >/dev/null 2>&1; then
		echo "ok   ./bench -compare $f $f"
	else
		echo "FAIL ./bench -compare $f $f (hand-edited or truncated trajectory point?)"
		status=1
	fi
done

# A golden figure moves only by name (ROADMAP item 3(a)): every file under
# testdata/golden that the last commit changed must be named in the first
# line of CHANGES.md, the line that commit adds.
if git rev-parse -q --verify HEAD~1 >/dev/null 2>&1; then
	first=$(head -n 1 CHANGES.md)
	for f in $(git diff --name-only HEAD~1 HEAD -- testdata/golden); do
		if printf '%s\n' "$first" | grep -qF "$(basename "$f")"; then
			echo "ok   CHANGES.md names moved golden $f"
		else
			echo "FAIL $f moved in the last commit but CHANGES.md's first line does not name it"
			status=1
		fi
	done
else
	echo "ok   golden moves: no parent commit, checked nothing"
fi

# Growth is named too (ROADMAP item 13): when the last commit grew the
# non-test Go lines outside bench/, the first line of CHANGES.md gives both
# totals, each either bare (16851) or grouped (16,851).
if git rev-parse -q --verify HEAD~1 >/dev/null 2>&1; then
	tmp=$(mktemp -d)
	trap 'rm -rf "$tmp"' EXIT INT TERM
	for ref in HEAD~1 HEAD; do
		mkdir "$tmp/$ref"
		git archive "$ref" | tar -x -C "$tmp/$ref"
	done
	was=$(./scripts/size.sh "$tmp/HEAD~1" | awk 'END { print $1 }')
	now=$(./scripts/size.sh "$tmp/HEAD" | awk 'END { print $1 }')
	named() {
		grouped=$(echo "$1" | awk '{ s = ""; n = $1; while (n >= 1000) { s = sprintf(",%03d", n % 1000) s; n = int(n / 1000) }; print n s }')
		printf '%s\n' "$first" | grep -qE "(^|[^0-9,])($1|$grouped)([^0-9,]|\$)"
	}
	first=$(head -n 1 CHANGES.md)
	if [ "$now" -le "$was" ]; then
		echo "ok   non-test lines outside bench/: $was -> $now"
	elif named "$was" && named "$now"; then
		echo "ok   non-test lines outside bench/ grew $was -> $now, and CHANGES.md's first line names both"
	else
		echo "FAIL non-test lines outside bench/ grew $was -> $now in the last commit but CHANGES.md's first line does not name both totals"
		status=1
	fi
fi

exit $status
