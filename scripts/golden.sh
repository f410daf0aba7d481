#!/bin/sh
# golden: the figure TSVs committed under testdata/golden are the
# byte-identity oracle for engine work (ROADMAP Open item 3) — the quick
# sweep of every experiment and paper-scale fig4, figw and ablation-credit,
# all at seed 1, plus the quick sweep and fig4 again at seed 7, so a claim
# measured at two seeds is held to both. figw and ablation-credit are the
# ranked runs: the quick world's 30 peers never make a credit table grow,
# paper scale's 200 do. trace is `exchsim -trace` of the recorded 60-node
# wave run in wave-flash.trace: the one golden whose blocks (4 KiB, 32.768
# kbit) are not a whole number of kbit.
#
#   scripts/golden.sh check    regenerate each at -parallel 1 and -parallel 8
#                              and cmp all fourteen outputs against the files
#   scripts/golden.sh update   rewrite the files from the working tree
#
# `make golden-check` is the CI gate; `make golden-update` is the only way
# the files move, and the commit that runs it says in CHANGES.md which
# series moved and why.
set -eu
mode=${1:-check}
case $mode in
check | update) ;;
*)
	echo "usage: $0 check|update" >&2
	exit 2
	;;
esac
cd "$(dirname "$0")/.."
dir=testdata/golden
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT INT TERM
go build -o "$tmp/exchsim" ./cmd/exchsim

# gen <name> <seed> <parallel>: one golden's TSV on stdout.
gen() {
	case $1 in
	all-quick) "$tmp/exchsim" -all -quick -seed "$2" -parallel "$3" ;;
	trace) "$tmp/exchsim" -trace "$dir/wave-flash.trace" -quick -seed "$2" -parallel "$3" ;;
	*) "$tmp/exchsim" -experiment "$1" -seed "$2" -parallel "$3" ;;
	esac
}

status=0
for golden in all-quick.1 fig4.1 figw.1 ablation-credit.1 all-quick.7 fig4.7 trace.1; do
	name=${golden%.*}
	seed=${golden##*.}
	file=$dir/$name.seed$seed.tsv
	case $mode in
	update)
		mkdir -p "$dir"
		gen "$name" "$seed" 8 >"$file"
		echo "wrote $file"
		;;
	check)
		for par in 1 8; do
			gen "$name" "$seed" "$par" >"$tmp/out"
			if cmp "$tmp/out" "$file"; then
				echo "ok   $file (-parallel $par)"
			else
				echo "FAIL $file (-parallel $par): output differs from the golden"
				status=1
			fi
		done
		;;
	esac
done
exit $status
