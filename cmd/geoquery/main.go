// Command geoquery answers top-k footprint-similarity queries against
// a FootprintDB produced by geoextract, using any of the Section 6
// search methods — through the same name → engine mapping, and so the
// same query path, as geoserve's ?method=.
//
// Usage:
//
//	geoquery -db partA.db -user 42 -k 5
//	geoquery -db partA.db -user 42 -k 10 -method batch -exclude-self
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"
	"time"

	"geofootprint/internal/core"
	"geofootprint/internal/engine"
	"geofootprint/internal/geom"
	"geofootprint/internal/search"
	"geofootprint/internal/store"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("geoquery: ")

	dbPath := flag.String("db", "", "FootprintDB path (required)")
	user := flag.Int("user", -1, "query user ID (or use -adhoc)")
	adhoc := flag.String("adhoc", "",
		"ad-hoc query footprint: semicolon-separated rectangles 'x1,y1,x2,y2[,weight]'")
	k := flag.Int("k", 5, "number of results")
	method := flag.String("method", "user-centric",
		"search method: linear, iterative, batch, user-centric or sketch")
	excludeSelf := flag.Bool("exclude-self", false, "omit the query user from the results")
	explain := flag.Bool("explain", false,
		"show the top contributing region pairs for every result")
	flag.Parse()

	if *dbPath == "" || (*user < 0 && *adhoc == "") || *method == "" {
		flag.Usage()
		os.Exit(2)
	}
	db, err := store.Load(*dbPath)
	if err != nil {
		log.Fatal(err)
	}
	var q core.Footprint
	label := ""
	if *adhoc != "" {
		if q, err = parseAdhoc(*adhoc); err != nil {
			log.Fatal(err)
		}
		label = "ad-hoc footprint"
	} else {
		qi, ok := db.IndexOf(*user)
		if !ok {
			log.Fatalf("user %d not in %s", *user, *dbPath)
		}
		q = db.Row(qi)
		if len(q) == 0 {
			log.Fatalf("user %d has an empty footprint", *user)
		}
		label = fmt.Sprintf("user %d (norm %.6f)", *user, db.Norm(qi))
	}
	if err := q.Validate(); err != nil {
		log.Fatal(err)
	}

	want := *k
	if *excludeSelf {
		want++
	}

	buildStart := time.Now()
	// Reuse sketches persisted in the database; build them here
	// (counted as index time) when the file predates the layer.
	if *method == "sketch" && !db.SketchesEnabled() {
		db.EnableSketches(0, 0)
	}
	eng, err := engine.NewView(db, 0).Engine(*method)
	if err != nil {
		log.Fatal(err)
	}
	buildTime := time.Since(buildStart)

	queryStart := time.Now()
	res := eng.TopK(q, want)
	queryTime := time.Since(queryStart)

	if *excludeSelf {
		filtered := res[:0]
		for _, r := range res {
			if r.ID != *user {
				filtered = append(filtered, r)
			}
		}
		if len(filtered) > *k {
			filtered = filtered[:*k]
		}
		res = filtered
	}

	fmt.Printf("query %s, %d RoIs — method %s, index %.1fms, query %.3fms\n",
		label, len(q), *method,
		buildTime.Seconds()*1e3, queryTime.Seconds()*1e3)
	qnorm := core.Norm(q)
	for i, r := range res {
		fmt.Printf("%2d. user %-8d similarity %.6f\n", i+1, r.ID, r.Score)
		if !*explain {
			continue
		}
		ui, _ := db.IndexOf(r.ID)
		ex := search.Explain(db.Row(ui), q, db.Norm(ui), qnorm, 3)
		for _, c := range ex.Contributions {
			fmt.Printf("      %.0f%% from overlap %v (area %.6f)\n",
				100*c.Share, c.Overlap, c.Overlap.Area())
		}
	}
	if len(res) == 0 {
		fmt.Println("no users with overlapping footprints")
	}
}

// parseAdhoc builds a footprint from "x1,y1,x2,y2[,w];..." syntax.
func parseAdhoc(s string) (core.Footprint, error) {
	var f core.Footprint
	for i, part := range strings.Split(s, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		fields := strings.Split(part, ",")
		if len(fields) != 4 && len(fields) != 5 {
			return nil, fmt.Errorf("rect %d: want 4 or 5 comma-separated numbers, got %d", i, len(fields))
		}
		var vals [5]float64
		vals[4] = 1
		for j, fs := range fields {
			v, err := strconv.ParseFloat(strings.TrimSpace(fs), 64)
			if err != nil {
				return nil, fmt.Errorf("rect %d field %d: %v", i, j, err)
			}
			vals[j] = v
		}
		f = append(f, core.Region{
			Rect:   geom.Rect{MinX: vals[0], MinY: vals[1], MaxX: vals[2], MaxY: vals[3]},
			Weight: vals[4],
		})
	}
	if len(f) == 0 {
		return nil, fmt.Errorf("adhoc query contains no rectangles")
	}
	core.SortByMinX(f)
	return f, nil
}
