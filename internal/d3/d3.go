// Package d3 implements the Section 8 extension of the paper to
// objects moving in 3D space: regions of interest become 4D
// (space × time) boxes whose 3D spatial projections form the user's
// footprint. The norm and similarity definitions carry over with
// volumes in place of areas.
//
// The sweep algorithms generalise as the paper describes: the sweep
// line becomes a sweep *plane* along x, and the active intervals of
// Algorithms 2 and 3 become active y-z rectangles, whose squared
// coverage (respectively coverage product) is integrated per stripe by
// the 2D plane-sweep machinery of the base system. This realises the
// stated O(n³) complexity: 2n sweep-plane stops, each running an
// O(n²) 2D sweep over the active set.
package d3

import (
	"math"
	"sort"

	"geofootprint/internal/core"
	"geofootprint/internal/geom"
)

// Region3 is one region of interest of a 3D geo-footprint: the 3D
// spatial projection of a 4D RoI and its weight.
type Region3 struct {
	Box    geom.Box3
	Weight float64
}

// Footprint3 is the 3D geo-footprint of a user.
type Footprint3 []Region3

// MBB returns the minimum bounding box of the footprint.
func (f Footprint3) MBB() geom.Box3 {
	m := geom.EmptyBox3()
	for _, r := range f {
		m = m.Extend(r.Box)
	}
	return m
}

// Translate returns a copy of the footprint shifted by (dx, dy, dz).
func (f Footprint3) Translate(dx, dy, dz float64) Footprint3 {
	g := make(Footprint3, len(f))
	for i, r := range f {
		b := r.Box
		b.MinX += dx
		b.MaxX += dx
		b.MinY += dy
		b.MaxY += dy
		b.MinZ += dz
		b.MaxZ += dz
		g[i] = Region3{Box: b, Weight: r.Weight}
	}
	return g
}

type event3 struct {
	v     float64
	idx   int32
	src   int8
	start bool
}

func events3(f Footprint3, src int8, evs []event3) []event3 {
	for i, r := range f {
		evs = append(evs,
			event3{v: r.Box.MinX, idx: int32(i), src: src, start: true},
			event3{v: r.Box.MaxX, idx: int32(i), src: src, start: false},
		)
	}
	return evs
}

func sortEvents3(evs []event3) {
	sort.Slice(evs, func(i, j int) bool {
		if evs[i].v != evs[j].v {
			return evs[i].v < evs[j].v
		}
		return evs[i].start && !evs[j].start
	})
}

// Norm computes ||F|| with the sweep-plane generalisation of
// Algorithm 2: Σ over disjoint 3D regions X of |X|·f_X², square-rooted.
func Norm(f Footprint3) float64 {
	return math.Sqrt(NormSquared(f))
}

// NormSquared returns ||F||², integrating squared coverage stripe by
// stripe along x; the active y-z rectangles of each stripe are handed
// to the 2D plane-sweep norm.
func NormSquared(f Footprint3) float64 {
	if len(f) == 0 {
		return 0
	}
	evs := events3(f, 0, make([]event3, 0, 2*len(f)))
	sortEvents3(evs)
	active := make(map[int32]struct{}, len(f))
	var ssq float64
	prev := evs[0].v
	for _, e := range evs {
		if e.v > prev {
			if len(active) > 0 {
				fp := make(core.Footprint, 0, len(active))
				for i := range active {
					fp = append(fp, core.Region{Rect: f[i].Box.YZRect(), Weight: f[i].Weight})
				}
				ssq += core.NormSquared(fp) * (e.v - prev)
			}
			prev = e.v
		}
		if e.start {
			active[e.idx] = struct{}{}
		} else {
			delete(active, e.idx)
		}
	}
	return ssq
}

// Similarity computes the 3D analogue of Equation 1 with the
// sweep-plane generalisation of Algorithm 3, deriving both norms in
// the same pass.
func Similarity(fr, fs Footprint3) float64 {
	sim, _, _ := SimilarityWithNorms(fr, fs)
	return sim
}

// SimilarityWithNorms is Similarity, also returning the two norms.
func SimilarityWithNorms(fr, fs Footprint3) (sim, normR, normS float64) {
	if len(fr) == 0 && len(fs) == 0 {
		return 0, 0, 0
	}
	evs := events3(fr, 0, make([]event3, 0, 2*(len(fr)+len(fs))))
	evs = events3(fs, 1, evs)
	sortEvents3(evs)

	activeR := make(map[int32]struct{}, len(fr))
	activeS := make(map[int32]struct{}, len(fs))
	var simn, ssqR, ssqS float64
	prev := evs[0].v
	for _, e := range evs {
		if e.v > prev {
			w := e.v - prev
			fpR := activeFootprint(fr, activeR)
			fpS := activeFootprint(fs, activeS)
			if len(fpR) > 0 && len(fpS) > 0 {
				simn += core.Numerator(fpR, fpS) * w
			}
			if len(fpR) > 0 {
				ssqR += core.NormSquared(fpR) * w
			}
			if len(fpS) > 0 {
				ssqS += core.NormSquared(fpS) * w
			}
			prev = e.v
		}
		m := activeR
		if e.src == 1 {
			m = activeS
		}
		if e.start {
			m[e.idx] = struct{}{}
		} else {
			delete(m, e.idx)
		}
	}
	normR, normS = math.Sqrt(ssqR), math.Sqrt(ssqS)
	denom := normR * normS
	if denom == 0 {
		return 0, normR, normS
	}
	sim = simn / denom
	if sim < 0 {
		sim = 0
	}
	if sim > 1 {
		sim = 1
	}
	return sim, normR, normS
}

func activeFootprint(f Footprint3, active map[int32]struct{}) core.Footprint {
	if len(active) == 0 {
		return nil
	}
	fp := make(core.Footprint, 0, len(active))
	for i := range active {
		fp = append(fp, core.Region{Rect: f[i].Box.YZRect(), Weight: f[i].Weight})
	}
	return fp
}

// SimilarityJoin is the 3D analogue of Algorithm 4: every intersecting
// pair of boxes contributes its intersection volume times the weight
// product. Boxes are swept along x so only x-overlapping pairs are
// examined. Norms must be precomputed.
func SimilarityJoin(fr, fs Footprint3, normR, normS float64) float64 {
	denom := normR * normS
	if denom == 0 || len(fr) == 0 || len(fs) == 0 {
		return 0
	}
	ri := make([]int, len(fr))
	for i := range ri {
		ri[i] = i
	}
	si := make([]int, len(fs))
	for i := range si {
		si[i] = i
	}
	sort.Slice(ri, func(a, b int) bool { return fr[ri[a]].Box.MinX < fr[ri[b]].Box.MinX })
	sort.Slice(si, func(a, b int) bool { return fs[si[a]].Box.MinX < fs[si[b]].Box.MinX })

	var simn float64
	i, j := 0, 0
	for i < len(ri) && j < len(si) {
		if fr[ri[i]].Box.MinX <= fs[si[j]].Box.MinX {
			r := fr[ri[i]]
			for k := j; k < len(si) && fs[si[k]].Box.MinX <= r.Box.MaxX; k++ {
				s := fs[si[k]]
				simn += r.Box.IntersectionVolume(s.Box) * r.Weight * s.Weight
			}
			i++
		} else {
			s := fs[si[j]]
			for k := i; k < len(ri) && fr[ri[k]].Box.MinX <= s.Box.MaxX; k++ {
				r := fr[ri[k]]
				simn += r.Box.IntersectionVolume(s.Box) * r.Weight * s.Weight
			}
			j++
		}
	}
	sim := simn / denom
	if sim < 0 {
		return 0
	}
	if sim > 1 {
		return 1
	}
	return sim
}

// NormNaive computes the 3D norm by coordinate compression, the O(n⁴)
// test oracle.
func NormNaive(f Footprint3) float64 {
	if len(f) == 0 {
		return 0
	}
	xs, ys, zs := breakpoints3(f)
	var ssq float64
	for i := 0; i+1 < len(xs); i++ {
		for j := 0; j+1 < len(ys); j++ {
			for k := 0; k+1 < len(zs); k++ {
				cx, cy, cz := mid(xs, i), mid(ys, j), mid(zs, k)
				var w float64
				for _, r := range f {
					if covers3(r.Box, cx, cy, cz) {
						w += r.Weight
					}
				}
				ssq += (xs[i+1] - xs[i]) * (ys[j+1] - ys[j]) * (zs[k+1] - zs[k]) * w * w
			}
		}
	}
	return math.Sqrt(ssq)
}

// SimilarityNaive computes the 3D similarity by coordinate
// compression.
//
//lint:ignore testonly the reference the 3D similarity tests compare the sweep and the join against
func SimilarityNaive(fr, fs Footprint3) float64 {
	all := make(Footprint3, 0, len(fr)+len(fs))
	all = append(all, fr...)
	all = append(all, fs...)
	if len(all) == 0 {
		return 0
	}
	xs, ys, zs := breakpoints3(all)
	var simn float64
	for i := 0; i+1 < len(xs); i++ {
		for j := 0; j+1 < len(ys); j++ {
			for k := 0; k+1 < len(zs); k++ {
				cx, cy, cz := mid(xs, i), mid(ys, j), mid(zs, k)
				var wr, ws float64
				for _, r := range fr {
					if covers3(r.Box, cx, cy, cz) {
						wr += r.Weight
					}
				}
				for _, s := range fs {
					if covers3(s.Box, cx, cy, cz) {
						ws += s.Weight
					}
				}
				simn += (xs[i+1] - xs[i]) * (ys[j+1] - ys[j]) * (zs[k+1] - zs[k]) * wr * ws
			}
		}
	}
	denom := NormNaive(fr) * NormNaive(fs)
	if denom == 0 {
		return 0
	}
	sim := simn / denom
	if sim > 1 {
		return 1
	}
	return sim
}

func covers3(b geom.Box3, x, y, z float64) bool {
	return b.MinX <= x && x <= b.MaxX && b.MinY <= y && y <= b.MaxY && b.MinZ <= z && z <= b.MaxZ
}

func mid(vs []float64, i int) float64 { return (vs[i] + vs[i+1]) / 2 }

func breakpoints3(f Footprint3) (xs, ys, zs []float64) {
	xset := map[float64]struct{}{}
	yset := map[float64]struct{}{}
	zset := map[float64]struct{}{}
	for _, r := range f {
		xset[r.Box.MinX] = struct{}{}
		xset[r.Box.MaxX] = struct{}{}
		yset[r.Box.MinY] = struct{}{}
		yset[r.Box.MaxY] = struct{}{}
		zset[r.Box.MinZ] = struct{}{}
		zset[r.Box.MaxZ] = struct{}{}
	}
	collect := func(set map[float64]struct{}) []float64 {
		out := make([]float64, 0, len(set))
		for v := range set {
			out = append(out, v)
		}
		sort.Float64s(out)
		return out
	}
	return collect(xset), collect(yset), collect(zset)
}
