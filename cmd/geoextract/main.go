// Command geoextract runs the preprocessing pipeline of the paper on
// a trajectory dataset: Algorithm 1 extracts every user's regions of
// interest, Algorithm 2 precomputes every footprint norm, and the
// resulting FootprintDB is persisted for geoquery/geocluster.
//
// Usage:
//
//	geoextract -i partA.bin -o partA.db
//	geoextract -i partA.csv -eps 0.02 -tau 30 -weight duration -o partA.db
//
// The input format (GFTB1 binary or text) is detected from the file.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"geofootprint/internal/core"
	"geofootprint/internal/extract"
	"geofootprint/internal/store"
	"geofootprint/internal/traj"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("geoextract: ")

	in := flag.String("i", "", "input dataset path (required)")
	out := flag.String("o", "", "output FootprintDB path (required)")
	eps := flag.Float64("eps", 0.02, "spatial bound ε of Definition 3.2")
	tau := flag.Int("tau", 30, "minimum locations τ of Definition 3.2")
	mode := flag.String("mode", "diameter", "ε-check mode: diameter (exact pairwise) or extent (MBR diagonal)")
	weight := flag.String("weight", "unit", "region weighting: unit or duration")
	workers := flag.Int("workers", 0, "parallel workers (0 = all CPUs)")
	flag.Parse()

	if *in == "" || *out == "" {
		flag.Usage()
		os.Exit(2)
	}

	ds, err := traj.LoadAuto(*in)
	if err != nil {
		log.Fatal(err)
	}

	cfg := extract.Config{Epsilon: *eps, Tau: *tau}
	switch *mode {
	case "diameter":
		cfg.Mode = extract.DiameterL2
	case "extent":
		cfg.Mode = extract.ExtentMBR
	default:
		log.Fatalf("unknown mode %q", *mode)
	}
	w := core.UnitWeight
	switch *weight {
	case "unit":
	case "duration":
		w = core.DurationWeight
	default:
		log.Fatalf("unknown weighting %q", *weight)
	}

	start := time.Now()
	db, err := store.Build(ds, cfg, w, *workers)
	if err != nil {
		log.Fatal(err)
	}
	elapsed := time.Since(start)
	if err := db.Save(*out); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s: %d users, %d regions (%.1f avg), %.2fs (%.0f footprints/s)\n",
		*out, db.Len(), db.NumRegions(),
		float64(db.NumRegions())/float64(max(db.Len(), 1)),
		elapsed.Seconds(), float64(db.Len())/elapsed.Seconds())
}
