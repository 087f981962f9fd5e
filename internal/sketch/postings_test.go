package sketch

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"geofootprint/internal/core"
	"geofootprint/internal/geom"
)

// postingsLayer draws a sketch layer that mixes ordinary footprints
// with the rows a transpose could get wrong: users with no footprint
// (never had one, or tombstoned — both store the zero Sketch), users
// occupying a single cell, users wholly outside the domain (clamped
// into border cells), and the touching/duplicate/zero-extent shapes of
// degenerateFootprint.
func postingsLayer(rng *rand.Rand, p Params, n int) []Sketch {
	w, h := p.Domain.MaxX-p.Domain.MinX, p.Domain.MaxY-p.Domain.MinY
	sks := make([]Sketch, n)
	for u := range sks {
		var f core.Footprint
		switch rng.Intn(6) {
		case 0: // empty user or tombstone
		case 1: // a speck well inside one cell
			x := p.Domain.MinX + (float64(rng.Intn(p.G))+0.4)*w/float64(p.G)
			y := p.Domain.MinY + (float64(rng.Intn(p.G))+0.4)*h/float64(p.G)
			f = core.Footprint{{Rect: geom.Rect{MinX: x, MinY: y, MaxX: x + w/float64(8*p.G), MaxY: y + h/float64(8*p.G)}, Weight: 2}}
		case 2: // outside the domain: border clamp
			x, y := p.Domain.MaxX+rng.Float64()*w, p.Domain.MinY-rng.Float64()*h
			f = core.Footprint{{Rect: geom.Rect{MinX: x, MinY: y - 0.1*h, MaxX: x + 0.2*w, MaxY: y}, Weight: 1}}
		case 3:
			f = degenerateFootprint(rng, 1+rng.Intn(8), w)
		default:
			f = randomFootprint(rng, 1+rng.Intn(12), w)
		}
		sks[u] = Build(f, p)
	}
	return sks
}

// rowOf is the row function of BuildPostings over a flat layer.
func rowOf(sks []Sketch) func(int) *Sketch {
	return func(u int) *Sketch { return &sks[u] }
}

// TestPostingsMatchDot: for every user of a generated layer the
// accumulator holds the bits of the three-term reference BoundDot and
// of DotDense, whichever backing the transpose was built from; Walk
// counts the postings visited; and Clear leaves the accumulator all +0.
func TestPostingsMatchDot(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	for trial := 0; trial < 60; trial++ {
		g := []int{1, 2, 7, 16, 64}[trial%5]
		p := Params{G: g, Domain: geom.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}}
		if trial%2 == 1 {
			p.Domain = geom.Rect{MinX: 0.25, MinY: 0.25, MaxX: 0.75, MaxY: 0.75}
		}
		n := rng.Intn(80)
		sks := postingsLayer(rng, p, n)
		post := BuildPostings(g, len(sks), rowOf(sks))

		// The flat backing: the same layer as CSR columns.
		starts := []int64{0}
		var flatCols Sketch
		for u := range sks {
			flatCols.Cells = append(flatCols.Cells, sks[u].Cells...)
			flatCols.Mass = append(flatCols.Mass, sks[u].Mass...)
			flatCols.Peak = append(flatCols.Peak, sks[u].Peak...)
			flatCols.Root = append(flatCols.Root, sks[u].Root...)
			starts = append(starts, int64(len(flatCols.Cells)))
		}
		cells := flatCols.Cells
		views := make([]Sketch, n)
		for u := range views {
			lo, hi := starts[u], starts[u+1]
			views[u] = Sketch{Cells: cells[lo:hi], Mass: flatCols.Mass[lo:hi], Peak: flatCols.Peak[lo:hi], Root: flatCols.Root[lo:hi]}
		}
		flat := BuildPostings(g, len(views), rowOf(views))
		if !reflect.DeepEqual(post, flat) {
			t.Fatalf("trial %d (G=%d): transpose differs between the AoS and the flat backing", trial, g)
		}
		if post.Len() != len(cells) {
			t.Fatalf("trial %d: %d postings for %d stored cells", trial, post.Len(), len(cells))
		}

		acc := make([]float64, n)
		queries := postingsLayer(rng, p, 12)
		queries = append(queries, Sketch{})
		for qi := range queries {
			q := &queries[qi]
			walk := 0
			raster := Rasterize(q, g)
			post.Accumulate(q, acc)
			for u := range sks {
				dot := BoundDot(&sks[u], q)
				dense := DotDense(&sks[u], raster.Table())
				if math.Float64bits(acc[u]) != math.Float64bits(dot) || math.Float64bits(dense) != math.Float64bits(dot) {
					t.Fatalf("trial %d (G=%d) query %d user %d: accumulate %v, dense %v, dot %v", trial, g, qi, u, acc[u], dense, dot)
				}
				for _, c := range sks[u].Cells {
					if containsCell(q, c) {
						walk++
					}
				}
			}
			raster.Release()
			if got := post.Walk(q); got != walk {
				t.Fatalf("trial %d query %d: Walk = %d, the layer shares %d cells with the query", trial, qi, got, walk)
			}
			post.Clear(q, acc)
			for u, v := range acc {
				if math.Float64bits(v) != 0 {
					t.Fatalf("trial %d query %d: accumulator[%d] = %v after Clear, want +0", trial, qi, u, v)
				}
			}
		}
	}
}

func containsCell(s *Sketch, c int32) bool {
	for _, x := range s.Cells {
		if x == c {
			return true
		}
	}
	return false
}

// A query sketch from a finer raster must be refused before it indexes
// the starts array, like Rasterize refuses it.
func TestPostingsRejectForeignSketch(t *testing.T) {
	post := BuildPostings(4, 0, nil)
	defer func() {
		if recover() == nil {
			t.Fatalf("Walk accepted cell 16 of a 4×4 raster")
		}
	}()
	post.Walk(&Sketch{Cells: []int32{16}, Mass: []float32{1}, Peak: []float32{1}, Root: []float64{1}})
}
