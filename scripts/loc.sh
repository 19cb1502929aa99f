#!/bin/sh
# Counts non-test Go source outside benchmark/ (a separate module with
# its own gate): for each package directory, and in total, the lines in
# its *.go files that are not *_test.go, and how many of those are code
# — not blank, not a // comment line, not inside a /* */ block. Line
# counts quoted in ROADMAP.md and CHANGES.md come from here, so that two
# entries about the same package can be compared.
#
#   scripts/loc.sh [dir]      # default: the repository root
set -eu
cd "${1:-$(dirname "$0")/..}"
find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path './.bench_build/*' | sort |
	awk '
	{
		file = $0
		dir = file; sub(/\/[^\/]*$/, "", dir); sub(/^\.\/?/, "", dir); if (dir == "") dir = "."
		if (!(dir in lines)) order[++n] = dir
		block = 0
		while ((getline line < file) > 0) {
			lines[dir]++
			sub(/^[ \t]+/, "", line)
			if (block) { if (line ~ /\*\//) block = 0; continue }
			if (line == "" || line ~ /^\/\//) continue
			if (line ~ /^\/\*/) { if (line !~ /\*\//) block = 1; continue }
			code[dir]++
		}
		close(file)
	}
	END {
		printf "%-28s %8s %8s\n", "package", "lines", "code"
		for (i = 1; i <= n; i++) {
			d = order[i]
			printf "%-28s %8d %8d\n", d, lines[d], code[d]
			tl += lines[d]; tc += code[d]
		}
		printf "%-28s %8d %8d\n", "total", tl, tc
	}'
