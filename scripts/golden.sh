#!/bin/sh
# golden: the figure TSVs committed under testdata/golden are the
# byte-identity oracle for engine work (ROADMAP Open item 3) — the quick
# sweep of every experiment and paper-scale fig4, figw and ablation-credit,
# all at seed 1. The last two are the ranked runs: the quick world's 30
# peers never make a credit table grow, paper scale's 200 do.
#
#   scripts/golden.sh check    regenerate each at -parallel 1 and -parallel 8
#                              and cmp all eight outputs against the files
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

# gen <name> <parallel>: one golden's TSV on stdout.
gen() {
	case $1 in
	all-quick) "$tmp/exchsim" -all -quick -seed 1 -parallel "$2" ;;
	*) "$tmp/exchsim" -experiment "$1" -seed 1 -parallel "$2" ;;
	esac
}

status=0
for name in all-quick fig4 figw ablation-credit; do
	file=$dir/$name.seed1.tsv
	case $mode in
	update)
		mkdir -p "$dir"
		gen "$name" 8 >"$file"
		echo "wrote $file"
		;;
	check)
		for par in 1 8; do
			gen "$name" "$par" >"$tmp/out"
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
