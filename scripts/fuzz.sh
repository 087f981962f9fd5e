#!/usr/bin/env sh
# Fuzz every committed testing.F target for a short, fixed time each:
# one `go test -fuzz` invocation per target (the flag accepts only one
# match per run). Targets are found by name, so a new Fuzz* function is
# covered the day it lands. A failure leaves its input under the
# package's testdata/fuzz/ — commit it with the fix.
#
# Usage: scripts/fuzz.sh [fuzztime]   (default 5s; check.sh and
# `make fuzz` both run this)
set -eu
cd "$(dirname "$0")/.."
fuzztime="${1:-5s}"

grep -rHo --include='*_test.go' --exclude-dir=.bench_build --exclude-dir=testdata \
	'^func Fuzz[A-Za-z0-9_]*' . | sort | while IFS=: read -r file fn; do
	target="${fn#func }"
	echo "-- $(dirname "$file") $target ($fuzztime)"
	go test -run '^$' -fuzz "^${target}\$" -fuzztime "$fuzztime" "$(dirname "$file")"
done
