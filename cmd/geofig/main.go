// Command geofig regenerates the paper's illustrative figures as SVG
// files from synthetic data:
//
//	fig1-trajectory.svg  — a user trajectory with its extracted RoIs
//	                       (Figure 1(a))
//	fig2-footprint.svg   — a footprint and its disjoint-region
//	                       frequencies (Figure 2(a))
//	fig3b-clusters.svg   — characteristic regions of nine clusters
//	                       (Figure 3(b))
//
// Usage:
//
//	geofig -o figures/
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"path/filepath"

	"geofootprint/internal/bench"
	"geofootprint/internal/cluster"
	"geofootprint/internal/core"
	"geofootprint/internal/extract"
	"geofootprint/internal/geom"
	"geofootprint/internal/viz"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("geofig: ")

	out := flag.String("o", "figures", "output directory")
	scale := flag.Float64("scale", 0.004, "dataset scale for the clustering figure")
	sample := flag.Int("sample", 600, "users sampled for the clustering figure")
	flag.Parse()

	if err := os.MkdirAll(*out, 0o755); err != nil {
		log.Fatal(err)
	}

	w, err := bench.NewWorkload("A", *scale, 0)
	if err != nil {
		log.Fatal(err)
	}

	// Figure 1(a): pick a session with several RoIs.
	ecfg := bench.ExtractionConfig()
	var bestSession int = -1
	var bestUser int
	bestCount := 0
	for u := range w.Dataset.Users {
		for si, s := range w.Dataset.Users[u].Sessions {
			if n := len(extract.Extract(s, ecfg)); n > bestCount && n <= 6 {
				bestUser, bestSession, bestCount = u, si, n
			}
		}
		if u > 50 {
			break
		}
	}
	if bestSession < 0 {
		log.Fatal("no session with RoIs found")
	}
	session := w.Dataset.Users[bestUser].Sessions[bestSession]
	rois := extract.Extract(session, ecfg)
	rects := make([]geom.Rect, len(rois))
	for i, r := range rois {
		rects[i] = r.Rect
	}
	writeSVG(filepath.Join(*out, "fig1-trajectory.svg"), func(f *os.File) error {
		return viz.TrajectorySVG(f, session, rects, 640, 640)
	})

	// Figure 2(a): a footprint with overlapping regions.
	var fp core.Footprint
	for u := range w.DB.IDs {
		if hasOverlap(w.DB.Row(u)) {
			fp = w.DB.Row(u)
			break
		}
	}
	if fp == nil {
		fp = w.DB.Row(0)
	}
	writeSVG(filepath.Join(*out, "fig2-footprint.svg"), func(f *os.File) error {
		return viz.FootprintSVG(f, fp, 640, 640)
	})

	// Figure 3(b): characteristic regions of nine clusters.
	rng := rand.New(rand.NewSource(7))
	n := w.DB.Len()
	if *sample > n {
		*sample = n
	}
	idxs := rng.Perm(n)[:*sample]
	m := cluster.DistanceMatrix(w.DB, idxs, 0)
	labels, err := cluster.Agglomerative(m, 9, cluster.AverageLink)
	if err != nil {
		log.Fatal(err)
	}
	regions, err := cluster.CharacteristicRegions(w.DB, idxs, labels, 9,
		cluster.DefaultCharacteristicConfig())
	if err != nil {
		log.Fatal(err)
	}
	writeSVG(filepath.Join(*out, "fig3b-clusters.svg"), func(f *os.File) error {
		return viz.ClustersSVG(f, regions, 800, 800)
	})

	// Bonus: the aggregate dwell-density heatmap of the whole part.
	rows := make([]core.Footprint, w.DB.Len())
	for u := range rows {
		rows[u] = w.DB.Row(u)
	}
	writeSVG(filepath.Join(*out, "heatmap.svg"), func(f *os.File) error {
		return viz.HeatmapSVG(f, rows, 64, 800, 800)
	})
}

func hasOverlap(f core.Footprint) bool {
	for i := range f {
		for j := i + 1; j < len(f); j++ {
			if f[i].Rect.IntersectionArea(f[j].Rect) > 0 {
				return true
			}
		}
	}
	return false
}

func writeSVG(path string, render func(*os.File) error) {
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	if err := render(f); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s\n", path)
}
