package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net/http"
	"sort"
	"time"

	"geofootprint/internal/retry"
)

// query mode drives the /v1/topk endpoint of either a single geoserve
// shard or a georouter coordinator with a stream of random weighted
// multi-region queries. Both speak the same request format; the
// responses differ — a shard answers a bare result list, the router an
// envelope carrying the partial-result contract — so the driver
// detects which it is talking to and, against a router, tallies how
// often the cluster answered partial and which shards went missing.
func query(args []string) {
	fs := flag.NewFlagSet("query", flag.ExitOnError)
	url := fs.String("url", "http://localhost:9090", "geoserve or georouter base URL")
	queries := fs.Int("queries", 100, "number of top-k queries to issue")
	k := fs.Int("k", 10, "results per query")
	method := fs.String("method", "", "search method to request (empty: server default)")
	regions := fs.Int("regions", 3, "weighted regions per query footprint")
	seed := fs.Int64("seed", 1, "query-stream seed")
	fs.Parse(args)

	rng := rand.New(rand.NewSource(*seed))
	type regionJSON struct {
		Rect   [4]float64 `json:"rect"`
		Weight float64    `json:"weight"`
	}
	type queryJSON struct {
		Regions []regionJSON `json:"regions"`
		K       int          `json:"k"`
		Method  string       `json:"method,omitempty"`
	}
	makeBody := func() []byte {
		q := queryJSON{K: *k, Method: *method}
		for i := 0; i < *regions; i++ {
			x, y := rng.Float64()*0.9, rng.Float64()*0.9
			w, h := 0.02+rng.Float64()*0.2, 0.02+rng.Float64()*0.2
			q.Regions = append(q.Regions, regionJSON{
				Rect:   [4]float64{x, y, x + w, y + h},
				Weight: float64(1 + rng.Intn(3)),
			})
		}
		b, err := json.Marshal(q)
		if err != nil {
			log.Fatal(err)
		}
		return b
	}

	client := &http.Client{Timeout: 30 * time.Second}
	// The router serves top-k on /v1/topk, a shard on /v1/query (same
	// request body). Start with the router path and fall back once.
	path := "/v1/topk"
	bo := retry.New(50*time.Millisecond, 2*time.Second, rand.New(rand.NewSource(*seed+1)))
	const maxAttempts = 10
	var (
		answered, partials, results, failedOver int
		missing                                 = map[string]int{}
		totalLatency                            time.Duration
	)
	start := time.Now()
	for qn := 0; qn < *queries; qn++ {
		body := makeBody()
		for attempt := 0; ; attempt++ {
			t0 := time.Now()
			var (
				retryIn time.Duration
				again   bool // shed, or the first 404 switched paths
			)
			err := post(client, *url+path, "application/json", body, func(status int, h http.Header, rb io.Reader) error {
				switch status {
				case http.StatusOK:
					env, err := decodeTopK(rb)
					if err != nil {
						return err
					}
					totalLatency += time.Since(t0)
					answered++
					results += len(env.Results)
					failedOver += env.FailedOver
					if env.Partial {
						partials++
						for _, id := range env.Missing {
							missing[id]++
						}
					}
					bo.Reset()
				case http.StatusTooManyRequests, http.StatusServiceUnavailable:
					if attempt+1 >= maxAttempts {
						return fmt.Errorf("shed %d times in a row (last status %d); giving up", maxAttempts, status)
					}
					again, retryIn = true, bo.Next(h.Get("Retry-After"))
				case http.StatusNotFound:
					if answered > 0 || path != "/v1/topk" {
						return errors.New("status 404")
					}
					path, again = "/v1/query", true
				default:
					return fmt.Errorf("status %d", status)
				}
				return nil
			})
			if err != nil {
				log.Fatalf("top-k: POST %s: %v", path, err)
			}
			if !again {
				break
			}
			time.Sleep(retryIn)
		}
	}
	elapsed := time.Since(start).Seconds()
	if answered == 0 {
		fmt.Println("answered 0 queries")
		return
	}
	fmt.Printf("answered %d/%d queries in %.1fs (%.0f queries/s, mean %.1f ms, %d results)\n",
		answered, *queries, elapsed, float64(answered)/elapsed,
		totalLatency.Seconds()*1e3/float64(answered), results)
	if failedOver > 0 {
		fmt.Printf("%d fan-out legs failed over to a replica\n", failedOver)
	}
	if partials > 0 {
		ids := make([]string, 0, len(missing))
		for id := range missing {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		fmt.Printf("%d partial responses (lost ring segments):\n", partials)
		for _, id := range ids {
			fmt.Printf("  segment %s missing from %d responses\n", id, missing[id])
		}
	} else {
		fmt.Println("no partial responses: every answer covered the full cluster")
	}
}

// topKResult is one ranked user of a top-k answer.
type topKResult struct {
	ID         int     `json:"id"`
	Similarity float64 `json:"similarity"`
}

// topKEnvelope is the router's answer; a shard's bare result list
// decodes into its Results.
type topKEnvelope struct {
	Results []topKResult `json:"results"`
	Partial bool         `json:"partial"`
	// Missing names lost ring segments: bare shard IDs when the
	// router runs unreplicated, "+"-joined replica tuples otherwise.
	Missing    []string `json:"missing"`
	FailedOver int      `json:"failed_over"`
}

// decodeTopK reads a shard's bare result list or a router's envelope.
func decodeTopK(r io.Reader) (topKEnvelope, error) {
	var raw json.RawMessage
	var env topKEnvelope
	if err := json.NewDecoder(r).Decode(&raw); err != nil {
		return env, fmt.Errorf("reading response: %w", err)
	}
	if raw[0] == '[' {
		return env, json.Unmarshal(raw, &env.Results)
	}
	return env, json.Unmarshal(raw, &env)
}
