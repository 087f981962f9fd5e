# Developer entry points. `make check` is the gate every PR must pass:
# gofmt + vet + geolint + build + race detector over the whole module +
# the full test suite (the tier-1 command plus the race and strictsort
# passes).

GO ?= go

.PHONY: check test lint lintstats loc race chaos fuzz cluster-test cluster-chaos bench-fig3a bench-sketch bench-failover bench-smoke benchdiff clean

check:
	./scripts/check.sh

test:
	$(GO) build ./... && $(GO) test ./...

# Repo-local analyzers (internal/lint): determinism, durability and
# hot-path invariants that go vet cannot see. Exits non-zero on any
# finding; suppressions require an inline justification
# (//lint:ignore <analyzer> <reason>).
lint:
	$(GO) run ./cmd/geolint ./...

# Diff `geolint -json` against the committed lint_baseline.json: new
# findings fail, fixed findings demand a baseline refresh
# (scripts/lintstats.sh -refresh). check.sh runs this after geolint.
lintstats:
	./scripts/lintstats.sh

# Code lines per package (non-test, non-comment, non-blank Go outside
# benchmark/): the number a "net-negative" PR quotes, parent vs change
# (`scripts/loc.sh <other checkout>` for the parent).
loc:
	./scripts/loc.sh

# No package is excluded: the whole module passes -race in well under
# two minutes (the internal/bench workload dominates at ~20s). If a
# package ever has to be carved out, list it here with the reason.
race:
	$(GO) test -race ./...

# Fault-injection and crash-recovery suite: every test that drives the
# durability layer through a faultfs schedule (ENOSPC, EIO, short
# writes, torn renames), tears WAL tails, or kills/seals the pipeline
# mid-flight. Run under -race because the interesting failures here
# are exactly the racy ones.
chaos:
	$(GO) test -race -run '(Fault|Chaos|Crash|Seal|Epoch)' \
		./internal/faultfs/... ./internal/wal/... ./internal/ingest/... \
		./internal/server/... ./internal/store/... ./internal/cache/... \
		./internal/colstore/...

# Every committed Fuzz* target for a short fixed time each (the loop
# check.sh runs as fuzz-smoke). Longer: `make fuzz FUZZTIME=2m`.
FUZZTIME ?= 5s
fuzz:
	./scripts/fuzz.sh $(FUZZTIME)

# Cross-shard equivalence suite: N in-process geoserve shards plus the
# router on loopback, proving scatter-gathered top-k bit-identical to
# single-node LinearScan (all methods, k ∈ {1,5,50}), explicit partial
# results under a degraded shard, and routed-ingest equivalence. Run
# under -race because the fan-out legs, health probes and admission
# gates are all concurrent.
cluster-test:
	$(GO) test -race -count=1 -run 'TestCluster|TestCoordinator' ./internal/router/ ./cmd/georouter/

# Network-chaos suite for the replicated serving plane: the full
# netfault and breaker unit suites, then the chaos matrix (every fault
# schedule × R ∈ {1,2,3} over 4 loopback shards — byte-identical or
# explicit partial naming the lost ring segments, never silently
# wrong), all-methods failover with one shard down, stale-replica /
# hinted-handoff / seq-regression tracking, and segment-restricted
# shard queries. Run under -race: fan-out legs, breaker tokens and
# hint queues are all concurrent.
cluster-chaos:
	$(GO) test -race -count=1 ./internal/netfault/ ./internal/breaker/
	$(GO) test -race -count=1 -run 'Chaos|Failover|Breaker|Stale|Replica|Segment' \
		./internal/router/ ./internal/server/ ./internal/hashring/

# Regenerate the committed BENCH_fig3a.json evidence (serial vs
# parallel batched top-k at geobench scale 0.05).
bench-fig3a:
	$(GO) run ./cmd/geobench -exp fig3a -scale 0.05 -parallel -json .

# Regenerate the committed BENCH_sketch.json evidence (sketch
# filter-and-refine resolution sweep vs linear/user-centric).
bench-sketch:
	$(GO) run ./cmd/geobench -exp sketch -scale 0.05 -json .

# Regenerate the committed BENCH_failover.json evidence (router top-k
# over 4 shards with shard-1 killed and restarted by fault injection,
# R=1 vs R=2: throughput, complete-vs-partial counts, failed-over leg
# totals, every answer verified exact over its claimed coverage).
bench-failover:
	$(GO) run ./cmd/geobench -exp failover -scale 0.05 -json .

# The ledger's own unit tests and smoke pass (benchmark/ is a module of
# its own, so `go test ./...` at the root does not reach it): real
# geoserve/georouter binaries on a 300-user corpus, including
# full-tuple `segment` legs sent straight to the shards. A wire change
# that breaks the ledger fails here, not in the benchmark driver.
bench-smoke:
	cd benchmark && $(GO) test ./...

# Compare two BENCH_<exp>.json reports; fails on >15% wall-clock
# regression of any method, and refuses reports whose experiment,
# scale, num_cpu or gomaxprocs differ. Usage:
#   make benchdiff OLD=old/BENCH_fig3a.json NEW=BENCH_fig3a.json
benchdiff:
	./scripts/benchdiff.sh $(OLD) $(NEW)

clean:
	$(GO) clean ./...
