package router

// Cluster equivalence suite: real geoserve shard servers (in-process,
// over loopback HTTP) behind a Router must be observationally
// indistinguishable from a single node holding the union corpus.
// These are the acceptance tests for the distributed serving plane:
//
//   - TestClusterEquivalence: for N ∈ {1,2,4} shards, router top-k is
//     byte-identical to LinearScan on the unpartitioned store, for
//     all four Section 6 methods (and sketch), k ∈ {1,5,50}.
//   - TestClusterDegradedShard: with one shard draining/degraded the
//     response says partial:true, names the shard, and the results
//     equal LinearScan over the remaining shards' users.
//   - TestClusterIngestEquivalence: a batch routed shard-by-owner
//     through the router yields the same queryable corpus as the same
//     batch ingested into one node.
//
// `make cluster-test` runs everything matching TestCluster under
// -race.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net/http/httptest"
	"testing"

	"geofootprint/internal/core"
	"geofootprint/internal/extract"
	"geofootprint/internal/geom"
	"geofootprint/internal/hashring"
	"geofootprint/internal/ingest"
	"geofootprint/internal/search"
	"geofootprint/internal/server"
	"geofootprint/internal/store"
)

// clusterCorpus builds the deterministic union corpus: 120 users so a
// 4-way split stays non-trivial and k=50 exercises real merge depth.
func clusterCorpus(t *testing.T) ([]int, []core.Footprint) {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	var ids []int
	var fps []core.Footprint
	for u := 0; u < 120; u++ {
		cx, cy := rng.Float64()*0.8, rng.Float64()*0.8
		f := core.Footprint{}
		for r := 0; r < 2+rng.Intn(3); r++ {
			x, y := cx+rng.Float64()*0.08, cy+rng.Float64()*0.08
			f = append(f, core.Region{
				Rect:   geom.Rect{MinX: x, MinY: y, MaxX: x + 0.03, MaxY: y + 0.03},
				Weight: 1 + float64(rng.Intn(3)),
			})
		}
		core.SortByMinX(f)
		ids = append(ids, 1000+u)
		fps = append(fps, f)
	}
	return ids, fps
}

// testRegions is the shared query geometry: one broad rectangle that
// overlaps most of the corpus (so k=50 has real candidates) plus two
// weighted focus areas.
const testRegions = `[{"rect":[0.05,0.05,0.85,0.85],"weight":1},{"rect":[0.2,0.2,0.4,0.4],"weight":3},{"rect":[0.6,0.1,0.75,0.3],"weight":2}]`

// parseRegions turns the raw query JSON into the core.Footprint a
// shard's handler would parse from the same bytes (weight 0 → 1,
// sorted by MinX) — the single-node oracle must score the exact
// geometry the shards score.
func parseRegions(t *testing.T, raw string) core.Footprint {
	t.Helper()
	var regs []struct {
		Rect   [4]float64 `json:"rect"`
		Weight float64    `json:"weight"`
	}
	if err := json.Unmarshal([]byte(raw), &regs); err != nil {
		t.Fatal(err)
	}
	f := make(core.Footprint, 0, len(regs))
	for _, r := range regs {
		w := r.Weight
		if w == 0 {
			w = 1
		}
		f = append(f, core.Region{
			Rect:   geom.Rect{MinX: r.Rect[0], MinY: r.Rect[1], MaxX: r.Rect[2], MaxY: r.Rect[3]},
			Weight: w,
		})
	}
	core.SortByMinX(f)
	return f
}

// cluster is an in-process shard deployment: one geoserve server per
// shard over a ring split of the corpus, fronted by a Router.
type cluster struct {
	router *Router
	srvs   []*server.Server
	// owned[i] lists the user IDs assigned to shard i, ascending.
	owned [][]int
}

// startCluster ring-splits (ids, fps) across n real shard servers and
// returns the wired deployment. The split is computed from a map with
// placeholder addresses — shard assignment depends only on shard IDs,
// which is exactly the reproducibility the shard-map format promises.
func startCluster(t *testing.T, n int, ids []int, fps []core.Footprint) *cluster {
	t.Helper()
	pre := &hashring.Map{Version: hashring.MapVersion}
	for i := 0; i < n; i++ {
		pre.Shards = append(pre.Shards, hashring.Shard{
			ID: fmt.Sprintf("shard-%d", i), Addr: fmt.Sprintf("http://pre-%d", i),
		})
	}
	ring, err := hashring.NewRing(pre)
	if err != nil {
		t.Fatal(err)
	}
	subIDs := make([][]int, n)
	subFPs := make([][]core.Footprint, n)
	for j, id := range ids {
		i := ring.ReplicaIndices(id, 1)[0]
		subIDs[i] = append(subIDs[i], id)
		subFPs[i] = append(subFPs[i], fps[j])
	}

	c := &cluster{owned: subIDs}
	live := &hashring.Map{Version: hashring.MapVersion}
	for i := 0; i < n; i++ {
		db, err := store.FromFootprints(fmt.Sprintf("shard-%d", i), subIDs[i], subFPs[i])
		if err != nil {
			t.Fatal(err)
		}
		srv := server.NewWithOptions(db, server.Options{ShardID: fmt.Sprintf("shard-%d", i)})
		hs := httptest.NewServer(srv.Handler())
		t.Cleanup(hs.Close)
		c.srvs = append(c.srvs, srv)
		live.Shards = append(live.Shards, hashring.Shard{ID: fmt.Sprintf("shard-%d", i), Addr: hs.URL})
	}
	c.router, err = New(Config{
		Map:            live,
		HealthInterval: -1,
		Logger:         log.New(io.Discard, "", 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.router.Close)
	c.router.CheckHealth(context.Background())
	return c
}

// assertSame fails unless got (router answer, parsed back from shard
// JSON) and want (in-memory oracle) match to the last bit — the
// cross-the-wire determinism claim, checked on re-marshalled bytes so
// "byte-identical" is literal.
func assertSame(t *testing.T, label string, got, want []search.Result) {
	t.Helper()
	gb, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	wb, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if string(gb) != string(wb) {
		t.Errorf("%s: router diverged from single-node oracle\nrouter: %s\noracle: %s", label, gb, wb)
	}
}

func TestClusterEquivalence(t *testing.T) {
	ids, fps := clusterCorpus(t)
	union, err := store.FromFootprints("union", ids, fps)
	if err != nil {
		t.Fatal(err)
	}
	oracle := search.NewLinearScan(union)
	qf := parseRegions(t, testRegions)

	for _, n := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			c := startCluster(t, n, ids, fps)
			for _, method := range []string{"user-centric", "linear", "iterative", "batch", "sketch"} {
				for _, k := range []int{1, 5, 50} {
					res, err := c.router.TopK(context.Background(), Query{
						Regions: json.RawMessage(testRegions), K: k, Method: method,
					})
					if err != nil {
						t.Fatalf("%s k=%d: %v", method, k, err)
					}
					if res.Partial || res.Queried != n {
						t.Fatalf("%s k=%d: healthy cluster answered partial=%v queried=%d", method, k, res.Partial, res.Queried)
					}
					assertSame(t, fmt.Sprintf("%s k=%d", method, k), res.Results, oracle.TopK(qf, k))
				}
			}
		})
	}
}

func TestClusterDegradedShard(t *testing.T) {
	ids, fps := clusterCorpus(t)
	c := startCluster(t, 4, ids, fps)
	qf := parseRegions(t, testRegions)

	// Drain shard-2: the router must skip it, say so, and stay exact
	// over the remaining shards' users.
	c.srvs[2].SetDraining(true)
	c.router.CheckHealth(context.Background())

	skip := map[int]bool{}
	for _, id := range c.owned[2] {
		skip[id] = true
	}
	var restIDs []int
	var restFPs []core.Footprint
	for j, id := range ids {
		if !skip[id] {
			restIDs = append(restIDs, id)
			restFPs = append(restFPs, fps[j])
		}
	}
	rest, err := store.FromFootprints("rest", restIDs, restFPs)
	if err != nil {
		t.Fatal(err)
	}
	oracle := search.NewLinearScan(rest)

	for _, k := range []int{1, 5, 50} {
		res, err := c.router.TopK(context.Background(), Query{
			Regions: json.RawMessage(testRegions), K: k,
		})
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if !res.Partial || len(res.Missing) != 1 || res.Missing[0] != "shard-2" || res.Queried != 3 {
			t.Fatalf("k=%d: partial contract broken: partial=%v missing=%v queried=%d",
				k, res.Partial, res.Missing, res.Queried)
		}
		assertSame(t, fmt.Sprintf("degraded k=%d", k), res.Results, oracle.TopK(qf, k))
	}

	// The shard recovers; the next probe round restores full answers.
	c.srvs[2].SetDraining(false)
	c.router.CheckHealth(context.Background())
	union, err := store.FromFootprints("union", ids, fps)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.router.TopK(context.Background(), Query{Regions: json.RawMessage(testRegions), K: 50})
	if err != nil {
		t.Fatal(err)
	}
	if res.Partial {
		t.Fatalf("recovered cluster still partial: %+v", res)
	}
	assertSame(t, "recovered k=50", res.Results, search.NewLinearScan(union).TopK(qf, 50))
}

// TestClusterIngestEquivalence routes a live batch through the
// coordinator path into WAL-backed shards and proves the resulting
// cluster answers exactly like one node that ingested the same batch.
func TestClusterIngestEquivalence(t *testing.T) {
	const n = 2
	mkCfg := func() ingest.Config {
		dir := t.TempDir()
		return ingest.Config{
			WALPath:      dir + "/s.wal",
			SnapshotPath: dir + "/s.snap",
			Extract:      extract.Config{Epsilon: 0.05, Tau: 4},
			SessionGap:   10,
		}
	}

	// Shard servers: empty WAL-backed corpora.
	live := &hashring.Map{Version: hashring.MapVersion}
	var pipes []*ingest.Pipeline
	for i := 0; i < n; i++ {
		cfg := mkCfg()
		rec, err := ingest.Recover(cfg)
		if err != nil {
			t.Fatal(err)
		}
		srv := server.NewWithOptions(rec.DB, server.Options{ShardID: fmt.Sprintf("shard-%d", i)})
		p, err := srv.AttachPipeline(cfg, rec.State)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { p.Close() })
		pipes = append(pipes, p)
		hs := httptest.NewServer(srv.Handler())
		t.Cleanup(hs.Close)
		live.Shards = append(live.Shards, hashring.Shard{ID: fmt.Sprintf("shard-%d", i), Addr: hs.URL})
	}
	r, err := New(Config{Map: live, HealthInterval: -1, Logger: log.New(io.Discard, "", 0)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	r.CheckHealth(context.Background())

	// Single-node reference: one pipeline swallows the whole batch.
	soloCfg := mkCfg()
	soloRec, err := ingest.Recover(soloCfg)
	if err != nil {
		t.Fatal(err)
	}
	soloSrv := server.NewWithOptions(soloRec.DB, server.Options{})
	soloPipe, err := soloSrv.AttachPipeline(soloCfg, soloRec.State)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { soloPipe.Close() })

	// One completed dwell RoI per user, at user-specific spots; the
	// coordinates have long binary fractions so any lossy float
	// handling on the routed path would change the extracted regions.
	var samples []ingest.Sample
	for u := 0; u < 12; u++ {
		x, y := 0.1+float64(u)/13.0, 0.1+float64(u)/17.0
		for i := 1; i <= 5; i++ {
			samples = append(samples, ingest.Sample{User: 3000 + u, X: x, Y: y, T: float64(i)})
		}
		samples = append(samples, ingest.Sample{User: 3000 + u, X: 0.95, Y: 0.95, T: 1000})
	}

	if _, err := r.RouteIngest(context.Background(), samples); err != nil {
		t.Fatal(err)
	}
	if _, err := soloPipe.Ingest(samples); err != nil {
		t.Fatal(err)
	}
	for _, p := range pipes {
		if err := p.Drain(); err != nil {
			t.Fatal(err)
		}
	}
	if err := soloPipe.Drain(); err != nil {
		t.Fatal(err)
	}

	// Health probes pick up the new per-shard user counts; then the
	// routed cluster must answer exactly like the solo node.
	r.CheckHealth(context.Background())
	qf := parseRegions(t, testRegions)
	oracle := search.NewLinearScan(soloRec.DB)
	for _, k := range []int{1, 5, 12} {
		res, err := r.TopK(context.Background(), Query{Regions: json.RawMessage(testRegions), K: k})
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if res.Partial {
			t.Fatalf("k=%d: partial on a healthy cluster: %+v", k, res)
		}
		assertSame(t, fmt.Sprintf("ingest k=%d", k), res.Results, oracle.TopK(qf, k))
	}
}
