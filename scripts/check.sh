#!/usr/bin/env sh
# Repo-wide static + concurrency checks. `make check` runs this.
#
# Order: cheap static analysis first (gofmt, vet, then the repo's own
# analyzers), then builds, then the race detector and the test suite.
set -eu
cd "$(dirname "$0")/.."

# Tracked Go files only; the analyzer fixtures under
# internal/lint/testdata/ are deliberately odd and stay as written.
echo "== gofmt =="
unformatted=$(git ls-files '*.go' | grep -v '^internal/lint/testdata/' | xargs gofmt -l)
if [ -n "$unformatted" ]; then
	echo "gofmt -l lists:" >&2
	echo "$unformatted" >&2
	exit 1
fi

echo "== go vet ./... =="
go vet ./...

# Focused copylocks pass over the packages that embed or hand around
# sync primitives (pools, WAL/server mutexes). go vet's default suite
# already includes copylocks; running it alone here makes the gate's
# intent explicit and keeps a hook for extra lock analyzers. On
# toolchains where per-analyzer flags are unavailable, build the
# standalone analyzer and run `go vet -vettool=$(which copylocks)`
# instead.
echo "== go vet -copylocks (store, wal, ingest, server, engine, sweep, core) =="
go vet -copylocks ./internal/store/... ./internal/wal/... ./internal/ingest/... \
	./internal/server/... ./internal/engine/... ./internal/sweep/... ./internal/core/...

# Repo-local analyzers: floatrange (map-order float accumulation),
# atomicwrite (persistence writes outside WriteFileAtomicFS),
# hotalloc (allocation in //geo:hotpath kernels), hotmath (math.Min/
# math.Max calls in them; the builtins compile inline), sortedfootprint
# (FootprintDB slice writes outside internal/store), footprintread
# (FootprintDB.Footprints reads outside internal/store: an opened
# database keeps that field nil, so rows go through Row/AppendRow/
# RowLen), errdiscard
# (dropped Sync/Close/WAL errors), ctxcancel (loops in
# //geo:cancellable functions that never poll ctx), epochmut
# (mutation of epoch-published databases outside the internal/store
# builder seam), bodyclose (calls returning an *http.Response outside
# retry.Exchange, which drains and closes every body, and RoundTrip
# methods), the flow-sensitive lockbalance (mutex Lock/Unlock balanced
# per path),
# testonly (exported names in internal/ packages that only tests or
# their own bodies reference, judged over every main, the facade and
# the benchmark module; a facade alias does not exempt its target's
# methods), and staleignore (//lint:ignore directives
# that suppress nothing). Any finding fails the gate; suppressions
# need an inline justification.
echo "== geolint ./... =="
go run ./cmd/geolint ./...

# Baseline discipline on top of the binary gate: geolint -json output
# must exactly match the committed lint_baseline.json (kept empty —
# the tree is lint-clean). New findings fail; entries that disappeared
# fail too, forcing a baseline refresh so it never drifts.
echo "== lintstats: geolint -json vs lint_baseline.json =="
./scripts/lintstats.sh

echo "== go build ./... =="
go build ./...

# Durable and served bytes go through typed codecs only: the WAL
# records, the checkpoint meta, the columnar snapshot and the
# trajectory formats. A reflective codec in them would let a renamed
# field change the bytes on disk unnoticed, so no internal package and
# neither server binary may import encoding/gob (cmd/geomigrate alone
# keeps a gob reader, to convert the checkpoint meta of older releases).
echo "== no encoding/gob in internal/, geoserve or georouter =="
gob=$( (go list -f '{{.ImportPath}}: {{join .Imports " "}}' ./internal/... | grep -w 'encoding/gob') || true)
if [ -n "$gob" ] || go list -deps ./cmd/geoserve ./cmd/georouter | grep -qx 'encoding/gob'; then
	echo "encoding/gob imported by:" >&2
	echo "${gob:-a dependency of cmd/geoserve or cmd/georouter}" >&2
	exit 1
fi

# The strictsort build must stay compilable on its own: it is the
# build operators deploy when they want unsorted-footprint leaks to
# panic instead of silently costing a copy+sort per similarity call.
echo "== go build -tags strictsort ./... =="
go build -tags strictsort ./...

# The chaos suite runs inside `go test -race ./...` below; this
# focused pass runs it first so a durability or epoch-lifecycle
# regression fails the gate before the (longer) full race pass, with a
# log line naming it. The Epoch tests race lock-free queries against
# epoch swaps and PUT-driven republish, so -race is the whole point.
echo "== chaos: fault-injection, crash-recovery & epoch-swap suite (-race) =="
go test -race -run '(Fault|Chaos|Crash|Seal|Epoch)' \
	./internal/faultfs/... ./internal/wal/... ./internal/ingest/... \
	./internal/server/... ./internal/store/... ./internal/cache/... \
	./internal/colstore/...

# The hot read path: the result cache — whose admission sketch every
# access mutates under the cache mutex — and the server's /similar hit,
# miss and admission tests, raced.
echo "== hot read path: result cache + /similar hit, miss & admission (-race) =="
go test -race -count=1 ./internal/cache/
go test -race -count=1 -run 'Similar|Hit|Admission' ./internal/server/

# Cross-shard equivalence suite: scatter-gathered top-k through real
# shard servers must be bit-identical to single-node LinearScan, stay
# exact (and explicit) under a degraded shard, and route ingest to the
# right owners. Concurrent fan-out legs, health probes and admission
# gates make -race the point here, as with the chaos pass above.
echo "== cluster: cross-shard scatter-gather equivalence suite (-race) =="
go test -race -count=1 -run 'TestCluster|TestCoordinator' ./internal/router/ ./cmd/georouter/

# Network-chaos suite for the replicated plane: netfault and breaker
# unit suites, then the chaos matrix (fault schedules × R ∈ {1,2,3}:
# byte-identical or explicit partial naming lost ring segments),
# all-methods failover with a shard down, and the stale-replica /
# hinted-handoff / seq-regression machinery. Same -race rationale.
echo "== cluster-chaos: netfault matrix, failover, breaker & stale-replica suite (-race) =="
go test -race -count=1 ./internal/netfault/ ./internal/breaker/
go test -race -count=1 -run 'Chaos|Failover|Breaker|Stale|Replica|Segment' \
	./internal/router/ ./internal/server/ ./internal/hashring/

# Snapshot-format migration self-test: the committed version-1 columnar
# fixture, and its version-2 rewrite, must read back bit for bit as a
# fresh build of its users, so operators can migrate old snapshots
# without a diffing step.
echo "== columnar migration (version-1 fixture -> version 2 = fresh build) =="
go test -count=1 -run 'TestVersion1FixturesOpenBitIdentical' ./internal/store/

# BenchmarkMissStages' stage table is a replay of search.TopK's loop
# with a stopwatch between the stages; before timing anything it checks
# that the replay refines as many candidates as TopK on every query.
# One iteration runs that check, so the table cannot drift from the
# loop it describes unnoticed.
echo "== stage replay: BenchmarkMissStages refines what search.TopK refines =="
go test -run '^$' -bench MissStages -benchtime 1x ./internal/search/

echo "== go test -race ./... =="
go test -race ./...

echo "== go test ./... =="
go test ./...

# The strictsort build turns the similarity kernels' silent
# copy+sort fallback into a panic, so any code path that leaks an
# unsorted footprint into Algorithm 4 fails loudly here instead of
# silently costing O(n log n) per call in production builds.
echo "== go test -tags strictsort ./... =="
go test -tags strictsort ./...

# Every committed testing.F target, five seconds each, after its seed
# corpus has already run as plain tests above: generated inputs at the
# untrusted byte boundaries (NDJSON lines against encoding/json,
# trajectory files) and against the structural oracles (R-tree
# operations, the sketch bound).
echo "== fuzz-smoke: every Fuzz* target for 5s =="
./scripts/fuzz.sh 5s

# The benchmark ledger is a separate module the passes above do not
# build: its unit tests plus a smoke pass of every workload against
# real geoserve/georouter binaries (1 s phases, 300-user corpus),
# answers checked against LinearScan. Catches a wire or API change
# that would otherwise only fail in the benchmark driver.
echo "== bench-smoke: benchmark/ unit tests + smoke pass on real binaries =="
(cd benchmark && go test ./...)

echo "check: all passes clean"
