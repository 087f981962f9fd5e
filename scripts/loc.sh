#!/usr/bin/env sh
# loc.sh — code lines per package: non-test Go files, with blank lines
# and comment-only lines (// and /* … */ blocks) left out, so that
# "this PR is net-negative" is a number a reviewer can re-run rather
# than a sentence. Denser formatting still moves it, deleted comments
# and code moved into _test.go files do not.
#
# Left out: benchmark/ (the ledger, its own module and frozen between
# PRs), .bench_build/ (what it writes) and internal/lint/testdata/
# (analyzer fixtures, not code of this repo).
#
#   scripts/loc.sh            # this tree
#   scripts/loc.sh ../parent  # another checkout, to compare against
set -eu
cd "${1:-$(dirname "$0")/..}"

find . -name '*.go' ! -name '*_test.go' \
	! -path './benchmark/*' ! -path './.bench_build/*' ! -path './internal/lint/testdata/*' |
	sort | xargs awk '
	FNR == 1 { inblock = 0 }
	{
		line = $0
		gsub(/^[ \t]+|[ \t]+$/, "", line)
		if (inblock) {
			if (line ~ /\*\//) inblock = 0
			next
		}
		if (line == "" || line ~ /^\/\//) next
		if (line ~ /^\/\*/) {
			if (line !~ /\*\//) inblock = 1
			next
		}
		pkg = FILENAME
		sub(/\/[^\/]*$/, "", pkg)
		n[pkg]++
		total++
	}
	END {
		for (p in n) printf "%7d %s\n", n[p], p | "sort -k2"
		close("sort -k2")
		printf "%7d total\n", total
		printf "%7d internal/search + internal/engine\n", n["./internal/search"] + n["./internal/engine"]
	}'
