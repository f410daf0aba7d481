#!/bin/sh
# overlap: the check a deliberate behavior change runs before it moves the
# goldens. It builds exchsim at BASE (through `git archive`) and from the
# working tree, runs paper-scale fig4, fig5, fig6 and figw at -replicas 10
# -seed 1 on each, and prints every (experiment, x, series) whose two 95 %
# intervals do not overlap, then one count line per experiment. It exits 1
# if there is any such pair. About 45 s per side on 2 cores.
#
#   scripts/overlap.sh BASE    (= make overlap BASE=<rev>)
set -eu
if [ $# -ne 1 ]; then
	echo "usage: $0 BASE" >&2
	exit 2
fi
cd "$(dirname "$0")/.."
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT INT TERM
mkdir "$tmp/base"
git archive "$1" | tar -x -C "$tmp/base"
(cd "$tmp/base" && go build -o "$tmp/exchsim-base" ./cmd/exchsim)
go build -o "$tmp/exchsim-tree" ./cmd/exchsim

status=0
for exp in fig4 fig5 fig6 figw; do
	for side in base tree; do
		"$tmp/exchsim-$side" -experiment "$exp" -replicas 10 -seed 1 >"$tmp/$exp.$side"
	done
	# A table is a "#" title line, a header, then one row per x. A column
	# named "<series> ±95%" is the half-width of the column before it. A
	# mean or half-width that is not a number (NaN: some replica of the
	# point recorded no sample) cannot be compared; such a pair is printed
	# and counted apart, and does not fail the check.
	awk -F '\t' -v ex="$exp" '
		function num(v) { return v ~ /^[-+]?([0-9]+[.]?[0-9]*|[.][0-9]+)([eE][-+]?[0-9]+)?$/ }
		FNR == 1 { side++; table = 0 }
		/^#/ { table++; head = 1; next }
		head { for (i = 1; i <= NF; i++) name[table, i] = $i; head = 0; next }
		{
			for (i = 2; i < NF; i++) {
				if (name[table, i + 1] != name[table, i] " ±95%") continue
				key = table SUBSEP $1 SUBSEP i
				mean[side, key] = $i
				half[side, key] = $(i + 1)
				if (side == 2) keys[++n] = key
			}
		}
		END {
			bad = nan = 0
			for (k = 1; k <= n; k++) {
				key = keys[k]
				split(key, f, SUBSEP)
				line = sprintf("%s\tx=%s\t%s\tbase %s ±%s\ttree %s ±%s", ex, f[2], name[f[1], f[3]], mean[1, key], half[1, key], mean[2, key], half[2, key])
				if ((1, key) in mean && !(num(mean[1, key]) && num(half[1, key]) && num(mean[2, key]) && num(half[2, key]))) {
					print line "\tnot comparable"
					nan++
					continue
				}
				d = mean[1, key] - mean[2, key]
				if (d < 0) d = -d
				if (!((1, key) in mean) || d > half[1, key] + half[2, key]) {
					print line
					bad++
				}
			}
			printf "%s: %d of %d (x, series) interval pairs overlap, %d do not, %d not comparable\n", ex, n - bad - nan, n, bad, nan
			exit (bad > 0)
		}' "$tmp/$exp.base" "$tmp/$exp.tree" || status=1
done
exit $status
