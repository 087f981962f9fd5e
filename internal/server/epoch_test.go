package server

import (
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"testing"
	"time"

	"geofootprint/internal/core"
	"geofootprint/internal/geom"
	"geofootprint/internal/store"
)

// testCorpus rebuilds the deterministic corpus testServer serves
// (fixed seed), so two servers constructed from separate calls answer
// byte-identically.
func testCorpus(t *testing.T) *store.FootprintDB {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	var fps []core.Footprint
	var ids []int
	for u := 0; u < 30; u++ {
		cx, cy := rng.Float64()*0.8, rng.Float64()*0.8
		f := core.Footprint{}
		for r := 0; r < 3; r++ {
			x, y := cx+rng.Float64()*0.05, cy+rng.Float64()*0.05
			f = append(f, core.Region{
				Rect:   geom.Rect{MinX: x, MinY: y, MaxX: x + 0.02, MaxY: y + 0.02},
				Weight: 1,
			})
		}
		core.SortByMinX(f)
		fps = append(fps, f)
		ids = append(ids, u+100)
	}
	db, err := store.FromFootprints("srv", ids, fps)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// Cached answers over HTTP are byte-identical to uncached ones on both
// HTTP-selectable methods, hits actually happen, and an epoch swap
// (PUT) invalidates the cache so post-swap answers reflect the new
// corpus on both servers identically.
func TestCacheCorrectnessOverHTTP(t *testing.T) {
	plain, _ := testServer(t)
	cachedSrv := NewWithOptions(testCorpus(t), Options{CacheSize: 64})
	hp, hc := plain.Handler(), cachedSrv.Handler()

	paths := []string{
		"/v1/users/105/similar?k=5",
		"/v1/users/105/similar?k=5&method=sketch",
		"/v1/users/110/similar?k=3&exclude_self=true",
	}
	body := `{"regions":[{"rect":[0.1,0.1,0.6,0.6]}],"k":5}`

	check := func(stage string) {
		t.Helper()
		for _, p := range paths {
			recP, _ := do(t, hp, "GET", p, "")
			recC1, _ := do(t, hc, "GET", p, "")
			recC2, _ := do(t, hc, "GET", p, "") // warm: served from cache
			if recP.Code != http.StatusOK || recC1.Code != http.StatusOK {
				t.Fatalf("%s: GET %s: %d / %d", stage, p, recP.Code, recC1.Code)
			}
			if recP.Body.String() != recC1.Body.String() {
				t.Fatalf("%s: cached server diverged on %s (cold):\n%s\nvs\n%s",
					stage, p, recP.Body.String(), recC1.Body.String())
			}
			if recC1.Body.String() != recC2.Body.String() {
				t.Fatalf("%s: cache hit not byte-identical on %s", stage, p)
			}
		}
		recP, _ := do(t, hp, "POST", "/v1/query", body)
		recC, _ := do(t, hc, "POST", "/v1/query", body)
		if recP.Body.String() != recC.Body.String() {
			t.Fatalf("%s: POST /v1/query diverged", stage)
		}

		// /similar answers by user key, computed from the stored row:
		// on the miss and on the hit, the body is LinearScan's list as
		// json.NewEncoder writes it, on both servers.
		ep, v := cachedSrv.acquire()
		db := v.DB()
		defer ep.Release()
		for _, id := range []int{105, 110} {
			for _, k := range []int{1, 5, 50} {
				for _, excl := range []bool{false, true} {
					want := similarOracle(db, id, k, excl)
					for _, method := range []string{"", "sketch", "linear"} {
						p := fmt.Sprintf("/v1/users/%d/similar?k=%d&exclude_self=%v&method=%s", id, k, excl, method)
						before, _ := cachedSrv.CacheStats()
						for pass, h := range []http.Handler{hc, hc, hp} {
							rec, _ := do(t, h, "GET", p, "")
							if rec.Code != http.StatusOK || rec.Body.String() != want {
								t.Fatalf("%s: GET %s (pass %d): %d %s, want %s", stage, p, pass, rec.Code, rec.Body, want)
							}
						}
						if after, _ := cachedSrv.CacheStats(); after.Hits-before.Hits < 1 {
							t.Fatalf("%s: GET %s never hit: %+v then %+v", stage, p, before, after)
						}
					}
				}
			}
		}
	}

	check("pre-swap")
	st, ok := cachedSrv.CacheStats()
	if !ok {
		t.Fatal("cache configured but CacheStats not ok")
	}
	if st.Hits == 0 || st.Misses == 0 {
		t.Fatalf("cache never exercised: %+v", st)
	}

	// Mutate a user the queries rank: the swap must purge the cache on
	// the cached server, and both servers must agree afterwards.
	put := `[{"rect":[0.1,0.1,0.62,0.62],"weight":3}]`
	for _, h := range []http.Handler{hp, hc} {
		if rec, _ := do(t, h, "PUT", "/v1/users/105", put); rec.Code != http.StatusOK {
			t.Fatalf("PUT: %d", rec.Code)
		}
	}
	check("post-swap")
	st2, _ := cachedSrv.CacheStats()
	if st2.Purged == 0 {
		t.Fatalf("swap did not purge the cache: %+v", st2)
	}
}

// Queries race PUT-driven epoch swaps on a cached server; every
// response must be well-formed, and the cache/epoch accounting must
// come out balanced (no leaked pins, all retired epochs reclaimed).
// Runs under -race via make chaos.
func TestEpochSwapStressChaos(t *testing.T) {
	s := NewWithOptions(testCorpus(t), Options{CacheSize: 32})
	h := s.Handler()

	stop := make(chan struct{})
	fail := make(chan string, 16)
	report := func(format string, args ...interface{}) {
		select {
		case fail <- fmt.Sprintf(format, args...):
		default:
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			paths := []string{
				fmt.Sprintf("/v1/users/%d/similar?k=4", 100+g),
				fmt.Sprintf("/v1/users/%d/similar?k=4&method=sketch", 103+g),
				"/v1/users?limit=5",
				"/healthz",
			}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				rec, _ := do(t, h, "GET", paths[i%len(paths)], "")
				if rec.Code != http.StatusOK && rec.Code != http.StatusNotFound {
					report("GET %s: status %d: %s", paths[i%len(paths)], rec.Code, rec.Body.String())
					return
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			id := 100 + i%20
			x := float64(i%7)/10 + 0.05
			body := fmt.Sprintf(`[{"rect":[%g,%g,%g,%g],"weight":2}]`, x, x, x+0.04, x+0.04)
			if rec, _ := do(t, h, "PUT", fmt.Sprintf("/v1/users/%d", id), body); rec.Code != http.StatusOK {
				report("PUT %d: status %d", id, rec.Code)
				return
			}
		}
	}()

	time.Sleep(250 * time.Millisecond)
	close(stop)
	wg.Wait()
	select {
	case msg := <-fail:
		t.Fatal(msg)
	default:
	}

	est := s.EpochStats()
	if est.Pins != 0 {
		t.Fatalf("pins leaked: %+v", est)
	}
	if est.Live != 1 {
		t.Fatalf("retired epochs not reclaimed: %+v", est)
	}
	if est.Published < 5 {
		t.Fatalf("no swaps happened: %+v", est)
	}
	cst, _ := s.CacheStats()
	if cst.Misses == 0 {
		t.Fatalf("cache never used: %+v", cst)
	}

	// /v1/ingest/stats needs a pipeline; /healthz must already carry
	// epoch and cache observability.
	_, obj := do(t, h, "GET", "/healthz", "")
	ep, ok := obj["epoch"].(map[string]interface{})
	if !ok || ep["seq"].(float64) < 5 {
		t.Fatalf("healthz epoch stats missing or stale: %v", obj)
	}
	if _, ok := obj["cache"].(map[string]interface{}); !ok {
		t.Fatalf("healthz cache stats missing: %v", obj)
	}
}
