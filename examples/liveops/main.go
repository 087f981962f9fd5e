// Liveops: running geo-footprints as a live service. Location events
// stream in while the system is serving queries: the online extractor
// turns each closed session into RoIs, the footprint database absorbs
// them with incremental norm updates, every write publishes the next
// immutable epoch, and an HTTP API answers similarity queries throughout —
// the full deployment story around the paper's algorithms.
//
// Run with:
//
//	go run ./examples/liveops
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net/http"
	"net/http/httptest"

	"geofootprint"
	"geofootprint/internal/retry"
)

func main() {
	log.SetFlags(0)
	rng := rand.New(rand.NewSource(5))

	// Bootstrap: an initial corpus of 200 tracked customers.
	cfg, err := geofootprint.SynthPart("A", 0.00072)
	if err != nil {
		log.Fatal(err)
	}
	dataset, _, err := geofootprint.GenerateDataset(cfg)
	if err != nil {
		log.Fatal(err)
	}
	db, err := geofootprint.BuildDB(dataset, geofootprint.DefaultExtraction())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("bootstrapped %d customers, %d regions\n", db.Len(), db.NumRegions())

	// Serve the corpus over HTTP (an in-process test server here; in
	// production this is cmd/geoserve).
	api := httptest.NewServer(geofootprint.NewServer(db).Handler())
	defer api.Close()

	var health struct {
		Users   int `json:"users"`
		Regions int `json:"regions"`
	}
	getJSON(api.URL+"/healthz", &health)
	fmt.Printf("service up: %d users / %d regions\n", health.Users, health.Regions)

	// A new customer walks the store. Their positions stream through
	// the online extractor; each dwell becomes an RoI the moment it
	// is finalized.
	newID := 999999
	var live []geofootprint.Region
	extractor, err := geofootprint.NewStreamingExtractor(geofootprint.DefaultExtraction(),
		func(r geofootprint.RoI) {
			live = append(live, geofootprint.Region{Rect: r.Rect, Weight: 1})
			fmt.Printf("  live RoI #%d at (%.3f, %.3f), %d samples\n",
				len(live), r.Rect.Center().X, r.Rect.Center().Y, r.Count)
		})
	if err != nil {
		log.Fatal(err)
	}

	// Simulate the visit: three dwells at popular areas of the store
	// (picked from existing customers' regions), transit in between.
	host := db.Row(rng.Intn(db.Len()))
	t := 0.0
	for stop := 0; stop < 3; stop++ {
		c := host[rng.Intn(len(host))].Rect.Center()
		cx, cy := c.X, c.Y
		for i := 0; i < 60; i++ {
			extractor.Push(geofootprint.Location{
				P: geofootprint.Point{
					X: cx + (rng.Float64()-0.5)*0.01,
					Y: cy + (rng.Float64()-0.5)*0.01,
				},
				T: t,
			})
			t += 0.1
		}
		// Fast transit breaks the region.
		extractor.Push(geofootprint.Location{
			P: geofootprint.Point{X: cx + 0.2, Y: cy + 0.3}, T: t,
		})
		t += 0.1
	}
	extractor.Flush()
	fmt.Printf("session closed with %d RoIs\n", len(live))

	// Publish the new footprint through the API: the server swaps in
	// the next epoch while queries keep running against the old one.
	body, err := json.Marshal(regionsJSON(live))
	if err != nil {
		log.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPut,
		fmt.Sprintf("%s/v1/users/%d", api.URL, newID), bytes.NewReader(body))
	if err != nil {
		log.Fatal(err)
	}
	var status int
	// The status code is the only signal used.
	if err := retry.Exchange(http.DefaultClient, req, func(s int, _ http.Header, _ io.Reader) error {
		status = s
		return nil
	}); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("published footprint for customer %d (HTTP %d)\n", newID, status)

	// The customer is immediately queryable.
	var similar []struct {
		ID         int     `json:"id"`
		Similarity float64 `json:"similarity"`
	}
	getJSON(fmt.Sprintf("%s/v1/users/%d/similar?k=5&exclude_self=true", api.URL, newID), &similar)
	fmt.Println("\ncustomers most similar to the live visitor:")
	for i, r := range similar {
		fmt.Printf("  %d. customer %-6d similarity %.4f\n", i+1, r.ID, r.Similarity)
	}
	if len(similar) == 0 {
		fmt.Println("  (no overlapping customers — the store is quiet today)")
	}
}

type regionWire struct {
	Rect   [4]float64 `json:"rect"`
	Weight float64    `json:"weight"`
}

func regionsJSON(regs []geofootprint.Region) []regionWire {
	out := make([]regionWire, len(regs))
	for i, r := range regs {
		out[i] = regionWire{
			Rect:   [4]float64{r.Rect.MinX, r.Rect.MinY, r.Rect.MaxX, r.Rect.MaxY},
			Weight: r.Weight,
		}
	}
	return out
}

func getJSON(url string, v interface{}) {
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		log.Fatal(err)
	}
	if err := retry.Exchange(http.DefaultClient, req, func(_ int, _ http.Header, body io.Reader) error {
		return json.NewDecoder(body).Decode(v)
	}); err != nil {
		log.Fatal(err)
	}
}
