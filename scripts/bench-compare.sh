#!/bin/sh
# bench-compare: paired runs of one benchmark workload on a base ref and on
# the working tree, alternating which side goes first, then the benchmark's
# own verdict per pair.
#
#   scripts/bench-compare.sh <base-ref> <workload> [seed]
#
# The base ref is extracted with `git archive` into a temporary directory
# (nothing is checked out or left behind in .git), and each side runs
# `go run ./bench -workload W -seed S -seconds 15 -trace 0` from its own tree,
# exactly as the driver does. PAIRS (default 5) sets the number of pairs;
# claim a gain only from >= 10 (docs: bench/README.md). Exit status 1 when any
# pair's `go run ./bench -compare` reports a regression.
set -eu
if [ $# -lt 2 ]; then
	echo "usage: $0 <base-ref> <workload> [seed]" >&2
	exit 2
fi
base=$1
workload=$2
seed=${3:-1}
pairs=${PAIRS:-5}

cd "$(dirname "$0")/.."
head=$(pwd)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT INT TERM
mkdir "$tmp/base" "$tmp/out"
git archive "$base" | tar -x -C "$tmp/base"

# run <side> <tree> <pair>: one benchmark invocation, results kept per pair.
run() {
	out="$tmp/out/$3-$1"
	(cd "$2" && go run ./bench -workload "$workload" -seed "$seed" -seconds 15 -trace 0 -out "$out" >"$out.log" 2>&1) || {
		echo "bench-compare: $1 run of pair $3 failed:" >&2
		tail -n 20 "$out.log" >&2
		exit 1
	}
}

status=0
i=1
while [ "$i" -le "$pairs" ]; do
	if [ $((i % 2)) -eq 1 ]; then
		run base "$tmp/base" "$i"
		run head "$head" "$i"
	else
		run head "$head" "$i"
		run base "$tmp/base" "$i"
	fi
	echo "== pair $i/$pairs: A = $base, B = working tree"
	go run ./bench -compare "$tmp/out/$i-base/latest-$workload.json" "$tmp/out/$i-head/latest-$workload.json" || status=1
	i=$((i + 1))
done
exit $status
