package sketch

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"geofootprint/internal/core"
	"geofootprint/internal/extract"
	"geofootprint/internal/geom"
	"geofootprint/internal/synth"
)

// buildSorted is Build as it shipped while it sorted: one contribution
// per (disjoint region, cell) pair in generation order, sorted by (cell,
// generation order) so that each cell's contributions are summed in the
// order they were generated. Every stored sketch of that time was made
// by it, so the sort-free Build must reproduce it bit for bit.
func buildSorted(f core.Footprint, p Params) Sketch {
	if len(f) == 0 {
		return Sketch{}
	}
	g := p.G
	cw := (p.Domain.MaxX - p.Domain.MinX) / float64(g)
	ch := (p.Domain.MaxY - p.Domain.MinY) / float64(g)
	type cellPart struct {
		cell         int32
		seq          int
		mass, energy float64
	}
	var parts []cellPart
	for _, d := range core.DisjointRegions(f) {
		w := d.Weight
		ix0 := cellIndex(d.Rect.MinX, p.Domain.MinX, cw, g)
		ix1 := cellIndex(d.Rect.MaxX, p.Domain.MinX, cw, g)
		iy0 := cellIndex(d.Rect.MinY, p.Domain.MinY, ch, g)
		iy1 := cellIndex(d.Rect.MaxY, p.Domain.MinY, ch, g)
		for iy := iy0; iy <= iy1; iy++ {
			wy := spanOverlap(d.Rect.MinY, d.Rect.MaxY, p.Domain.MinY, ch, iy, g)
			if wy <= 0 {
				continue
			}
			for ix := ix0; ix <= ix1; ix++ {
				wx := spanOverlap(d.Rect.MinX, d.Rect.MaxX, p.Domain.MinX, cw, ix, g)
				if wx <= 0 {
					continue
				}
				a := wx * wy
				parts = append(parts, cellPart{
					cell: int32(iy*g + ix), seq: len(parts),
					mass: w * a, energy: w * w * a,
				})
			}
		}
	}
	slices.SortFunc(parts, func(a, b cellPart) int {
		if a.cell != b.cell {
			return int(a.cell) - int(b.cell)
		}
		return a.seq - b.seq
	})
	var s Sketch
	for i := 0; i < len(parts); {
		cell := parts[i].cell
		var mass, energy float64
		for ; i < len(parts) && parts[i].cell == cell; i++ {
			mass += parts[i].mass
			energy += parts[i].energy
		}
		s.Cells = append(s.Cells, cell)
		s.Mass = append(s.Mass, Float32Up(mass))
		s.Root = append(s.Root, math.Sqrt(energy))
	}
	s.Peak = make([]float32, len(s.Cells))
	FillPeak(f, p, s.Cells, s.Peak)
	return s
}

// sameSketchBits fails unless got and want hold the same cells with the
// same root, mass and peak bits.
func sameSketchBits(t *testing.T, what string, got, want Sketch) {
	t.Helper()
	if !slices.Equal(got.Cells, want.Cells) {
		t.Fatalf("%s: cells %v, the sorting Build %v", what, got.Cells, want.Cells)
	}
	for i := range want.Cells {
		if math.Float64bits(got.Root[i]) != math.Float64bits(want.Root[i]) ||
			math.Float32bits(got.Mass[i]) != math.Float32bits(want.Mass[i]) ||
			math.Float32bits(got.Peak[i]) != math.Float32bits(want.Peak[i]) {
			t.Fatalf("%s cell %d: (root, mass, peak) = (%v, %v, %v), the sorting Build (%v, %v, %v)",
				what, want.Cells[i], got.Root[i], got.Mass[i], got.Peak[i], want.Root[i], want.Mass[i], want.Peak[i])
		}
	}
}

// TestBuildMatchesSortOracle holds Build to the sorting Build on
// overlapping random footprints under every raster randomParams draws,
// on degenerate ones (touching and repeated edges, zero extents, both
// zeros) at three magnitudes, and on footprints spanning thousands of
// cells at G = MaxG — where a fold that kept its cells sorted by
// inserting them one at a time would be quadratic, and where Build's
// cell index must still find each cell in O(1) probes.
func TestBuildMatchesSortOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	for it := 0; it < 400; it++ {
		p := randomParams(rng)
		f := randomFootprint(rng, rng.Intn(40), 0.2+rng.Float64())
		for i := range f {
			f[i].Weight *= 0.3 + rng.Float64() // sums that round
		}
		sameSketchBits(t, "random footprint", Build(f, p), buildSorted(f, p))
	}
	for it := 0; it < 300; it++ {
		scale := []float64{1e-150, 1, 1e150}[it%3]
		f := degenerateFootprint(rng, 1+rng.Intn(12), scale)
		p := Params{G: []int{1, 3, 8, 64}[rng.Intn(4)], Domain: geom.Rect{MaxX: scale, MaxY: scale}}
		sameSketchBits(t, "degenerate footprint", Build(f, p), buildSorted(f, p))
	}

	p := Params{G: MaxG, Domain: geom.Rect{MaxX: 1, MaxY: 1}}
	wide := randomFootprint(rng, 24, 0.2)
	for i := range wide {
		wide[i].Rect.MaxX += 0.1 // ≈ 150 columns by ≈ 50 rows of cells each
	}
	want := buildSorted(wide, p)
	if len(want.Cells) < 10_000 {
		t.Fatalf("the wide footprint spans %d cells, want thousands", len(want.Cells))
	}
	sameSketchBits(t, "wide footprint at G=MaxG", Build(wide, p), want)

	// Finding a cell's sums costs one probe plus its distance from its
	// hash slot, and under linear probing the total distance does not
	// depend on the order the cells came in: indexing the wide
	// footprint's cells must cost O(1) probes each.
	var sc buildScratch
	for _, c := range want.Cells {
		sc.cell(c)
	}
	mask := int32(len(sc.slots) - 1)
	dist := 0
	for _, s := range sc.sums {
		dist += int((s.slot - sc.hash(s.cell)) & mask)
	}
	if n := len(sc.sums); dist > n || len(sc.slots) > 4*n {
		t.Errorf("%d cells sit %d probes from their hash slots in an index of %d: want at most one each, in at most %d slots",
			n, dist, len(sc.slots), 4*n)
	}
}

// TestBuildMatchesSortOracleOnLedgerCorpus holds Build to the sorting
// Build on the ledger's corpus (Part A at scale 0.05, 13 900 users, the
// paper's extraction parameters, G = 64 over the corpus's extent) and on
// topk_miss-style queries: corpus footprints translated by at most
// 0.002 per axis.
func TestBuildMatchesSortOracleOnLedgerCorpus(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("generates the 13 900-user corpus")
	}
	cfg, err := synth.PartConfig("A", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	ds, _, err := synth.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rois := extract.ExtractDataset(ds, extract.Config{Epsilon: 0.02, Tau: 30}, 0)
	fps := make([]core.Footprint, len(rois))
	union := geom.EmptyRect()
	for i := range rois {
		fps[i] = core.FromRoIs(rois[i], core.UnitWeight)
		core.SortByMinX(fps[i])
		union = union.Extend(fps[i].MBR())
	}
	p := Params{G: DefaultG, Domain: FitDomain(union)}
	for _, f := range fps {
		sameSketchBits(t, "ledger user", Build(f, p), buildSorted(f, p))
	}
	rng := rand.New(rand.NewSource(101))
	for q := 0; q < 512; q++ {
		f := fps[rng.Intn(len(fps))].Translate((2*rng.Float64()-1)*0.002, (2*rng.Float64()-1)*0.002)
		core.SortByMinX(f)
		sameSketchBits(t, "ledger query", Build(f, p), buildSorted(f, p))
	}
}
