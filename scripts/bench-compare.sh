#!/bin/sh
# bench-compare: paired runs of the benchmark on a base ref and on the
# working tree, alternating which side goes first, then the benchmark's own
# verdict per pair and one tally over the pairs. This is the regression gate
# `make bench-compare` and CI's bench-track job run.
#
#   scripts/bench-compare.sh <base-ref> [workload|all] [seed]
#
# The base ref is extracted with `git archive` into a temporary directory
# (nothing is checked out or left behind in .git), and each side runs
# `go run ./bench [-workload W] -seed S -seconds 15 -trace 0` from its own
# tree, exactly as the driver does; `all` (the default) runs all six
# workloads. PAIRS (default 5) sets the number of pairs; claim a gain only
# from >= 10 (docs: bench/README.md). The tree side's last result is kept as
# bench/out/latest.json (latest-<workload>.json for one workload).
#
# Exit status: one pair proves nothing on a shared box — two runs of the same
# commit have compared as `op_ms_p90 +66.7% regressed` — so the gate is the
# tally: 1 when some (workload, metric) is `regressed` in more than half of
# the pairs, or when any pair has more failed ops on the tree side; a run of
# either side that fails outright aborts with its log tail.
set -eu
if [ $# -lt 1 ]; then
	echo "usage: $0 <base-ref> [workload|all] [seed]" >&2
	exit 2
fi
base=$1
workload=${2:-all}
seed=${3:-1}
pairs=${PAIRS:-5}
if [ "$workload" = all ]; then
	select=
	latest=latest.json
else
	select="-workload $workload"
	latest=latest-$workload.json
fi

cd "$(dirname "$0")/.."
head=$(pwd)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT INT TERM
mkdir "$tmp/base" "$tmp/out"
git archive "$base" | tar -x -C "$tmp/base"
go build -o "$tmp/bench" ./bench

# run <side> <tree> <pair>: one benchmark invocation, results kept per pair.
run() {
	out="$tmp/out/$3-$1"
	# shellcheck disable=SC2086 # $select is zero or two words on purpose
	(cd "$2" && go run ./bench $select -seed "$seed" -seconds 15 -trace 0 -out "$out" >"$out.log" 2>&1) || {
		echo "bench-compare: $1 run of pair $3 failed:" >&2
		tail -n 20 "$out.log" >&2
		exit 1
	}
}

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
	# -compare exits 1 for a regression (the tally's business) and 2 for an
	# unreadable file; `go run` would flatten both to 1, hence the binary.
	rc=0
	"$tmp/bench" -compare "$tmp/out/$i-base/$latest" "$tmp/out/$i-head/$latest" >"$tmp/out/$i.cmp" || rc=$?
	cat "$tmp/out/$i.cmp"
	if [ "$rc" -gt 1 ]; then
		echo "bench-compare: comparing pair $i failed" >&2
		exit 1
	fi
	i=$((i + 1))
done
mkdir -p bench/out
cp "$tmp/out/$pairs-head/$latest" "bench/out/$latest"

# Table rows are `workload metric ... verdict`; the header's last word is
# "verdict" itself, so it matches neither pattern. A `failed` row exists only
# when the tree side failed more ops, and one is enough.
echo "== tally over $pairs pairs (rows that were ever not ok)"
awk -v n="$pairs" '
	$NF == "regressed"  { r[$1 " " $2]++; seen[$1 " " $2] }
	$NF == "unresolved" { u[$1 " " $2]++; seen[$1 " " $2] }
	END {
		for (k in seen) {
			fail = 2 * r[k] > n || k ~ / failed$/
			if (fail) status = 1
			printf "%s: regressed %d/%d, unresolved %d/%d  %s\n", k, r[k], n, u[k], n, fail ? "FAIL" : "ok" | "sort"
		}
		close("sort")
		if (status) print "bench-compare: regressed in a majority of pairs (or more failed ops on the tree side)"
		else print "bench-compare: no (workload, metric) regressed in a majority of pairs"
		exit status + 0
	}' "$tmp"/out/*.cmp
