package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"geofootprint/internal/breaker"
	"geofootprint/internal/core"
	"geofootprint/internal/hashring"
	"geofootprint/internal/netfault"
	"geofootprint/internal/router"
	"geofootprint/internal/search"
	"geofootprint/internal/server"
	"geofootprint/internal/store"
)

// FailoverRow is one phase of the failover experiment: router top-k
// throughput and answer quality over 4 ring-split shards while one of
// them is killed and later restarted, at replication factor R. The
// experiment exists to price replication: R=1 pays nothing when
// healthy but answers partial through the outage; R=2 keeps every
// answer complete and exact while one shard is down.
type FailoverRow struct {
	Part     string `json:"part"`
	Replicas int    `json:"replicas"`
	// Phase is healthy, one-down, or restarted.
	Phase         string  `json:"phase"`
	Shards        int     `json:"shards"`
	Users         int     `json:"users"`
	Queries       int     `json:"queries"`
	K             int     `json:"k"`
	Clients       int     `json:"clients"`
	WallSeconds   float64 `json:"wall_seconds"`
	QueriesPerSec float64 `json:"queries_per_sec"`
	MeanMicros    float64 `json:"mean_micros"`
	// Partials counts answers that named lost ring segments; Complete
	// counts answers covering the whole corpus. Partials+Complete ==
	// Queries in every phase — a query never errors out.
	Partials int `json:"partials"`
	Complete int `json:"complete"`
	// FailedOver totals fan-out legs rescued by a later replica.
	FailedOver int `json:"failed_over"`
	// Exact reports that every answer in the verification pass was
	// bit-identical to LinearScan over the corpus it claimed to cover:
	// the full store for complete answers, the surviving segments'
	// users for partial ones. False means silently-wrong results — the
	// failure mode the replication layer exists to rule out.
	Exact bool `json:"exact"`
}

// failoverCluster is the 4-shard replica-split deployment the
// experiment drives, with a fault-injecting transport in front.
type failoverCluster struct {
	router *router.Router
	ring   *hashring.Ring
	ft     *netfault.Transport
	hosts  []string
	segOf  map[int]string // user ID -> owning segment ID
	closer func()
}

func startFailoverCluster(db *store.FootprintDB, n, R int) (*failoverCluster, error) {
	pre := &hashring.Map{Version: hashring.MapVersion}
	for i := 0; i < n; i++ {
		pre.Shards = append(pre.Shards, hashring.Shard{
			ID: fmt.Sprintf("shard-%d", i), Addr: fmt.Sprintf("http://pre-%d", i),
		})
	}
	ring, err := hashring.NewRing(pre)
	if err != nil {
		return nil, err
	}
	subIDs := make([][]int, n)
	subFPs := make([][]core.Footprint, n)
	segOf := make(map[int]string, db.Len())
	for u, id := range db.IDs {
		tuple := ring.ReplicaIndices(id, R)
		segOf[id] = ring.SegmentID(tuple)
		for _, i := range tuple {
			subIDs[i] = append(subIDs[i], id)
			subFPs[i] = append(subFPs[i], db.Row(u))
		}
	}

	c := &failoverCluster{ring: ring, ft: netfault.New(nil), segOf: segOf}
	live := &hashring.Map{Version: hashring.MapVersion}
	var srvs []*httptest.Server
	c.closer = func() {
		for _, s := range srvs {
			s.Close()
		}
	}
	for i := 0; i < n; i++ {
		sub, err := store.FromFootprints(fmt.Sprintf("shard-%d", i), subIDs[i], subFPs[i])
		if err != nil {
			c.closer()
			return nil, err
		}
		hs := httptest.NewServer(server.NewWithOptions(sub, server.Options{
			ShardID: fmt.Sprintf("shard-%d", i),
		}).Handler())
		srvs = append(srvs, hs)
		u, err := url.Parse(hs.URL)
		if err != nil {
			c.closer()
			return nil, err
		}
		c.hosts = append(c.hosts, u.Host)
		live.Shards = append(live.Shards, hashring.Shard{ID: fmt.Sprintf("shard-%d", i), Addr: hs.URL})
	}
	c.router, err = router.New(router.Config{
		Map:            live,
		Replicas:       R,
		HealthInterval: -1,
		RequestTimeout: 2 * time.Second,
		RetryBase:      time.Millisecond,
		RetryCap:       10 * time.Millisecond,
		Client:         &http.Client{Transport: c.ft},
		Logger:         log.New(io.Discard, "", 0),
		// A short open period keeps the one-down phase honest (the dead
		// shard is re-probed a few times during the run) while the
		// breaker still absorbs almost all of its cost.
		Breaker: breaker.Config{Window: 8, MinSamples: 2, OpenFor: 100 * time.Millisecond},
	})
	if err != nil {
		c.closer()
		return nil, err
	}
	srvClose := c.closer
	c.closer = func() {
		c.router.Close()
		srvClose()
	}
	c.router.CheckHealth(context.Background())
	return c, nil
}

// encodeRegions renders a footprint in the server's region wire format
// (`[{"rect":[minx,miny,maxx,maxy],"weight":w},…]`), the body the
// router forwards to every shard.
func encodeRegions(f core.Footprint) (json.RawMessage, error) {
	type region struct {
		Rect   [4]float64 `json:"rect"`
		Weight float64    `json:"weight"`
	}
	regs := make([]region, len(f))
	for i, r := range f {
		regs[i] = region{
			Rect:   [4]float64{r.Rect.MinX, r.Rect.MinY, r.Rect.MaxX, r.Rect.MaxY},
			Weight: r.Weight,
		}
	}
	return json.Marshal(regs)
}

// FailoverBench measures the distributed plane through a kill/restart
// cycle of one of 4 shards, at R=1 and R=2. Three phases per R:
// healthy, one-down (shard-1's host answers nothing), restarted
// (fault cleared, one health round, one breaker period). Every phase
// runs a verification pass first — each answer checked bit-identical
// to LinearScan over the corpus it claims to cover — then a timed
// pass with `clients` concurrent query goroutines.
func FailoverBench(w *Workload, queries, k, clients int, seed int64) ([]FailoverRow, error) {
	db := w.DB
	n := db.Len()
	qIdx := sampleUsers(db, queries, seed)
	queries = len(qIdx)
	if clients <= 0 {
		clients = runtime.GOMAXPROCS(0)
		if clients > 8 {
			clients = 8
		}
	}
	bodies := make([]json.RawMessage, queries)
	for i, qi := range qIdx {
		b, err := encodeRegions(db.Row(qi))
		if err != nil {
			return nil, err
		}
		bodies[i] = b
	}
	oracle := search.NewLinearScan(db)
	want := make([][]search.Result, queries)
	for i, qi := range qIdx {
		want[i] = oracle.TopK(db.Row(qi), k)
	}

	const shards = 4
	deadHost := 1 // shard-1 takes the kill
	var rows []FailoverRow
	for _, R := range []int{1, 2} {
		c, err := startFailoverCluster(db, shards, R)
		if err != nil {
			return nil, err
		}
		phase := func(name string) (FailoverRow, error) {
			row := FailoverRow{
				Part: w.Part, Replicas: R, Phase: name, Shards: shards,
				Users: n, Queries: queries, K: k, Clients: clients, Exact: true,
			}
			// Verification pass: exactness over the claimed coverage.
			for i, qi := range qIdx {
				res, err := c.router.TopK(context.Background(), router.Query{Regions: bodies[i], K: k})
				if err != nil {
					return row, fmt.Errorf("failover R=%d %s: query %d: %w", R, name, i, err)
				}
				expect := want[i]
				if res.Partial {
					expect = c.survivorOracle(db, res.Missing).TopK(db.Row(qi), k)
				}
				g, _ := json.Marshal(res.Results)
				o, _ := json.Marshal(expect)
				if string(g) != string(o) {
					row.Exact = false
					return row, fmt.Errorf("failover R=%d %s: query %d diverged from its oracle:\nrouter: %s\noracle: %s", R, name, i, g, o)
				}
			}
			// Timed pass.
			var next int64
			var partials, complete, failedOver int64
			var wg sync.WaitGroup
			start := time.Now()
			for cl := 0; cl < clients; cl++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						i := int(atomic.AddInt64(&next, 1)) - 1
						if i >= queries {
							return
						}
						res, err := c.router.TopK(context.Background(), router.Query{Regions: bodies[i], K: k})
						if err != nil {
							panic(fmt.Sprintf("failover bench query failed mid-measurement: %v", err))
						}
						if res.Partial {
							atomic.AddInt64(&partials, 1)
						} else {
							atomic.AddInt64(&complete, 1)
						}
						atomic.AddInt64(&failedOver, int64(res.FailedOver))
					}
				}()
			}
			wg.Wait()
			row.WallSeconds = time.Since(start).Seconds()
			row.Partials = int(partials)
			row.Complete = int(complete)
			row.FailedOver = int(failedOver)
			if row.WallSeconds > 0 {
				row.QueriesPerSec = float64(queries) / row.WallSeconds
				row.MeanMicros = row.WallSeconds * 1e6 / float64(queries)
			}
			return row, nil
		}

		healthy, err := phase("healthy")
		if err != nil {
			c.closer()
			return nil, err
		}
		// Kill: the shard's host answers nothing, starting now.
		c.ft.Set(c.hosts[deadHost], netfault.Schedule{FailFromN: 1})
		c.router.CheckHealth(context.Background())
		oneDown, err := phase("one-down")
		if err != nil {
			c.closer()
			return nil, err
		}
		// Restart: fault cleared, one health round, one breaker period.
		c.ft.Clear(c.hosts[deadHost])
		c.router.CheckHealth(context.Background())
		time.Sleep(150 * time.Millisecond) // > Breaker.OpenFor
		restarted, err := phase("restarted")
		if err != nil {
			c.closer()
			return nil, err
		}
		c.closer()
		rows = append(rows, healthy, oneDown, restarted)
	}
	return rows, nil
}

// survivorOracle builds a LinearScan over the users outside the lost
// segments — the exact corpus a correct partial answer covers.
func (c *failoverCluster) survivorOracle(db *store.FootprintDB, missing []string) *search.LinearScan {
	lost := make(map[string]bool, len(missing))
	for _, m := range missing {
		lost[m] = true
	}
	var ids []int
	var fps []core.Footprint
	for u, id := range db.IDs {
		if !lost[c.segOf[id]] {
			ids = append(ids, id)
			fps = append(fps, db.Row(u))
		}
	}
	rest, err := store.FromFootprints("survivors", ids, fps)
	if err != nil {
		panic(err) // unreachable: ids and fps are built in lockstep
	}
	return search.NewLinearScan(rest)
}
