#!/bin/sh
# Prints every exported function or method declared in the non-test Go
# files of the given package directories that no non-test .go file in
# the repository (both modules) mentions anywhere but on the line that
# declares it, comments aside. The match is by name, so a method is
# cleared by any use of that word; what it finds is surface only tests
# still call. Names a
# type needs to satisfy a standard interface are skipped. CI runs it
# over the simulated-environment packages and fails on any output.
#
#   scripts/unused.sh <dir>...      # paths relative to the repository root
set -eu
cd "$(dirname "$0")/.."
[ $# -gt 0 ] || { echo "usage: scripts/unused.sh <dir>..." >&2; exit 2; }

all=$(mktemp)
trap 'rm -f "$all"' EXIT
find . -name '*.go' ! -name '*_test.go' ! -path './.bench_build/*' ! -path './benchmark/out/*' \
	-exec cat {} + | sed -e 's/^[[:space:]]*\/\/.*//' -e 's/[[:space:]]\/\/.*//' >"$all"

for dir in "$@"; do
	for file in "$dir"/*.go; do
		case $file in *_test.go) continue ;; esac
		sed -n 's/^func \(([^)]*) \)\{0,1\}\([A-Z][A-Za-z0-9_]*\)[[(].*/\2/p' "$file"
	done | sort -u | while read -r name; do
		case $name in String | Error | MarshalJSON | UnmarshalJSON | Unwrap | Is) continue ;; esac
		grep -w -- "$name" "$all" | grep -qv "^func \(([^)]*) \)\{0,1\}$name[[(]" || echo "$dir: $name"
	done
done
