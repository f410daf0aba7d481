#!/bin/sh
# unimported: a package under internal/ that no other package of the module
# imports is dead weight (internal/bloom sat in the tree that way for ten
# PRs). Test imports count, so a test-support package passes; the programs
# under internal/tools are entry points, not libraries, and are exempt.
# Part of `make lint`, beside bartervet's symbol-level deadcode check: a
# package whose exports are all used by its own files still has no importer,
# and only this check sees that.
set -eu
cd "$(dirname "$0")/.."

# One line per package: its import path, then everything it imports. An
# external test package (XTestImports) imports the package under test, so
# self-imports are skipped.
orphans=$(go list -f '{{.ImportPath}} {{join .Imports " "}} {{join .TestImports " "}} {{join .XTestImports " "}}' ./... | awk '
	{ pkgs[$1] = 1; for (i = 2; i <= NF; i++) if ($i != $1) imported[$i] = 1 }
	END {
		for (p in pkgs)
			if (p ~ /\/internal\// && p !~ /\/internal\/tools\// && !(p in imported)) print p
	}' | sort)
if [ -n "$orphans" ]; then
	echo "unimported: no other package of the module imports:" >&2
	echo "$orphans" >&2
	exit 1
fi
