package store

import (
	"slices"

	"geofootprint/internal/core"
	"geofootprint/internal/geom"
	"geofootprint/internal/par"
	"geofootprint/internal/sketch"
)

// This file holds a database's rows: one layout, a spine of chunks,
// each the regions of chunkUsers consecutive users in the CSR column
// layout of the snapshot file (core.RegionCols plus starts), their
// norms and MBRs and, while the sketch layer is enabled, their
// sketches. Every row reader, the Algorithm 4 kernel, the candidate
// sources and the bound step read them; nothing else holds a
// database's per-user state but its IDs.
//
// Chunks are immutable. An opened snapshot's chunks alias the mapped
// columns (FromColumnar): they share the five columns and subslice the
// file's starts and norms, and their sketches slice the file's cell
// blocks, so opening copies no region, norm or cell. A write builds the
// touched row, its norm, MBR and sketch, then writes a fresh copy of
// the one chunk that holds it (putRow, appendRows), so the mapped
// columns and every chunk an epoch was frozen with are never written in
// place, and Freeze copies only the spine.

// chunkUsers is how many consecutive users a chunk holds (the last one
// may hold fewer): what a one-row write copies, and the spine's stride.
// A power of two, so locating a row is a shift and a mask. Sized on the
// 13 900-user ledger corpus (EXPERIMENTS.md, "One row layout"): a
// write copies its chunk, ≈ 280 regions (11 KB) plus 16 norms and
// MBRs (0.6 KB) at 16 users, and an AppendRoIs then costs what it did
// on the AoS rows (33.5 µs against 34.5), where 64 users cost 45.7 µs
// and 256 cost 80.0. The spine Freeze copies is 869 pointers (≈ 7 KB),
// which a larger stride would shrink, at the price of every write.
const chunkUsers = 16

// chunk is the rows of up to chunkUsers consecutive users: user k's
// (counted from the chunk's first user) regions are
// regions[starts[k]:starts[k+1]], its norm norms[k], its MBR mbrs[k]
// and its sketch sketches[k]. The offsets are absolute in the mapped
// columns for a chunk that aliases a snapshot, and start at 0 in a
// written one. sketches is nil while the sketch layer is disabled, and
// one per row while it is enabled.
type chunk struct {
	regions  core.RegionCols
	starts   []int64
	norms    []float64
	mbrs     []geom.Rect
	sketches []sketch.Sketch
}

// noRows is the empty chunk appendRows starts a new chunk from.
var noRows = &chunk{starts: []int64{0}}

func (c *chunk) users() int       { return len(c.starts) - 1 }
func (c *chunk) numRegions() int  { return int(c.starts[c.users()] - c.starts[0]) }
func (c *chunk) rowLen(k int) int { return int(c.starts[k+1] - c.starts[k]) }

// newChunk returns an empty chunk with room for users rows holding
// regions regions: the five columns and the norms share one
// allocation, each capacity-bounded.
func newChunk(users, regions int) *chunk {
	col := make([]float64, 5*regions+users)
	at := func(i int) []float64 { return col[i*regions : i*regions : (i+1)*regions] }
	return &chunk{
		regions: core.RegionCols{MinX: at(0), MinY: at(1), MaxX: at(2), MaxY: at(3), W: at(4)},
		starts:  append(make([]int64, 0, users+1), 0),
		norms:   col[5*regions : 5*regions : 5*regions+users],
		mbrs:    make([]geom.Rect, 0, users),
	}
}

// appendRow appends f, with its norm, as the chunk's next row.
func (c *chunk) appendRow(f core.Footprint, norm float64) {
	r := &c.regions
	for _, x := range f {
		r.MinX = append(r.MinX, x.Rect.MinX)
		r.MinY = append(r.MinY, x.Rect.MinY)
		r.MaxX = append(r.MaxX, x.Rect.MaxX)
		r.MaxY = append(r.MaxY, x.Rect.MaxY)
		r.W = append(r.W, x.Weight)
	}
	c.starts = append(c.starts, int64(len(r.MinX)))
	c.norms = append(c.norms, norm)
	c.mbrs = append(c.mbrs, f.MBR())
}

// copyRows appends src's rows [k0, k1) as the chunk's next rows.
func (c *chunk) copyRows(src *chunk, k0, k1 int) {
	lo, hi := src.starts[k0], src.starts[k1]
	r, s := &c.regions, &src.regions
	shift := int64(len(r.MinX)) - lo
	r.MinX = append(r.MinX, s.MinX[lo:hi]...)
	r.MinY = append(r.MinY, s.MinY[lo:hi]...)
	r.MaxX = append(r.MaxX, s.MaxX[lo:hi]...)
	r.MaxY = append(r.MaxY, s.MaxY[lo:hi]...)
	r.W = append(r.W, s.W[lo:hi]...)
	for _, st := range src.starts[k0+1 : k1+1] {
		c.starts = append(c.starts, st+shift)
	}
	c.norms = append(c.norms, src.norms[k0:k1]...)
	c.mbrs = append(c.mbrs, src.mbrs[k0:k1]...)
}

// at locates user u: the chunk that holds its row, and the row's
// position in it.
func (db *FootprintDB) at(u int) (*chunk, int) {
	return db.chunks[u/chunkUsers], u % chunkUsers
}

// span locates user u's regions: its chunk's columns and the [lo, hi)
// range of the row in them.
func (db *FootprintDB) span(u int) (c *core.RegionCols, lo, hi int) {
	ch, k := db.at(u)
	return &ch.regions, int(ch.starts[k]), int(ch.starts[k+1])
}

// putRow stores f, with its norm and its sketch sks[0] (sks nil while
// the layer is disabled), as user u's row by writing a fresh copy of
// the chunk that holds it; u one past the last row appends it.
func (db *FootprintDB) putRow(u int, f core.Footprint, norm float64, sks []sketch.Sketch) {
	ci, k := u/chunkUsers, u%chunkUsers
	if ci == len(db.chunks) || k == db.chunks[ci].users() {
		db.appendRows([]core.Footprint{f}, []float64{norm}, sks)
		return
	}
	old := db.chunks[ci]
	n := old.users()
	c := newChunk(n, old.numRegions()-old.rowLen(k)+len(f))
	c.copyRows(old, 0, k)
	c.appendRow(f, norm)
	c.copyRows(old, k+1, n)
	if sks != nil {
		c.sketches = slices.Clone(old.sketches)
		c.sketches[k] = sks[0]
	}
	db.chunks[ci] = c
}

// appendRows appends rows, with their norms and their sketches sks (nil
// while the layer is disabled), after the last one: a fresh copy of a
// partly filled last chunk takes the first of them, new chunks the
// rest.
func (db *FootprintDB) appendRows(rows []core.Footprint, norms []float64, sks []sketch.Sketch) {
	for len(rows) > 0 {
		ci, old := len(db.chunks), noRows
		if ci > 0 && db.chunks[ci-1].users() < chunkUsers {
			ci--
			old = db.chunks[ci]
		}
		take := rows[:min(chunkUsers-old.users(), len(rows))]
		regions := old.numRegions()
		for _, f := range take {
			regions += len(f)
		}
		c := newChunk(old.users()+len(take), regions)
		c.copyRows(old, 0, old.users())
		for i, f := range take {
			c.appendRow(f, norms[i])
		}
		norms = norms[len(take):]
		if sks != nil {
			c.sketches = append(slices.Clip(old.sketches), sks[:len(take)]...)
			sks = sks[len(take):]
		}
		if ci == len(db.chunks) {
			db.chunks = append(db.chunks, c)
		} else {
			db.chunks[ci] = c
		}
		rows = rows[len(take):]
	}
}

// wrote records a write to the rows: the Footprints and Norms exports
// no longer describe them, the chunks are no longer the mapped columns,
// and the indexes of the database's base (base.go) may describe rows
// that are gone.
func (db *FootprintDB) wrote() {
	db.Footprints = nil
	db.Norms = nil
	db.mapped = false
	db.dropBase()
}

// materialise exports every row as the AoS Footprints, one backing
// array for all regions with capacity-bounded rows, so an append to
// one row can never grow into its neighbour's. Load runs it; the store
// never reads the result.
func (db *FootprintDB) materialise() {
	regions := make([]core.Region, db.NumRegions())
	fps := make([]core.Footprint, db.Len())
	off := 0
	for u := range fps {
		n := db.RowLen(u)
		fps[u] = regions[off:off:(off + n)]
		off += n
	}
	par.For(len(fps), 0, 256, func(_, lo, hi int) {
		for u := lo; u < hi; u++ {
			fps[u] = db.AppendRow(fps[u], u)
		}
	})
	db.Footprints = fps
}

// NumRegions returns the total number of footprint regions across all
// users.
func (db *FootprintDB) NumRegions() int {
	n := 0
	for _, c := range db.chunks {
		n += c.numRegions()
	}
	return n
}

// Row returns a fresh copy of user u's stored footprint. Loops use
// AppendRow with a reused buffer instead.
func (db *FootprintDB) Row(u int) core.Footprint { return db.AppendRow(nil, u) }

// AppendRow appends user u's stored regions, in stored (MinX-sorted)
// order, to dst and returns the extended slice.
func (db *FootprintDB) AppendRow(dst core.Footprint, u int) core.Footprint {
	r, lo, hi := db.span(u)
	dst = slices.Grow(dst, hi-lo)
	n := len(dst)
	dst = dst[:n+hi-lo]
	fillRegions(dst[n:], r.MinX[lo:hi], r.MinY[lo:hi], r.MaxX[lo:hi], r.MaxY[lo:hi], r.W[lo:hi])
	return dst
}

// fillRegions is the sequential transpose kernel: column locals are
// parameters so the compiler keeps them in registers across the loop.
func fillRegions(dst []core.Region, minx, miny, maxx, maxy, w []float64) {
	for i := range dst {
		dst[i] = core.Region{
			Rect:   geom.Rect{MinX: minx[i], MinY: miny[i], MaxX: maxx[i], MaxY: maxy[i]},
			Weight: w[i],
		}
	}
}

// Sketch returns user u's stored sketch, read-only: it lives in an
// immutable chunk that published epochs may share. The sketch layer
// must be enabled.
func (db *FootprintDB) Sketch(u int) *sketch.Sketch {
	c, k := db.at(u)
	return &c.sketches[k]
}

// Norm returns user u's stored norm ||F(u)|| (Equation 2; 0 for a
// tombstone).
//
//geo:hotpath
func (db *FootprintDB) Norm(u int) float64 {
	c, k := db.at(u)
	return c.norms[k]
}

// MBR returns user u's stored MBR, the key of the user-centric index
// (empty for a tombstone).
//
//geo:hotpath
func (db *FootprintDB) MBR(u int) geom.Rect {
	c, k := db.at(u)
	return c.mbrs[k]
}

// RowLen returns the number of regions user u holds (0 for a
// tombstone).
func (db *FootprintDB) RowLen(u int) int {
	_, lo, hi := db.span(u)
	return hi - lo
}

// UserSimilarity is the Algorithm 4 similarity of stored user u
// against query footprint q with norm qnorm — the one kernel every
// search method and the engine refine through: SimilarityJoinCols over
// the row's range of its chunk.
//
//geo:hotpath
func (db *FootprintDB) UserSimilarity(u int, q core.Footprint, qnorm float64) float64 {
	c, k := db.at(u)
	return core.SimilarityJoinCols(&c.regions, int(c.starts[k]), int(c.starts[k+1]), q, c.norms[k], qnorm)
}

// RegionWeight returns the weight of region r of user u (the RoI-index
// accumulation reads it per R-tree hit).
//
//geo:hotpath
func (db *FootprintDB) RegionWeight(u, r int) float64 {
	c, lo, _ := db.span(u)
	return c.W[lo+r]
}
