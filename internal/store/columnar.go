package store

import (
	"errors"
	"fmt"
	"io"

	"geofootprint/internal/colstore"
	"geofootprint/internal/core"
	"geofootprint/internal/faultfs"
	"geofootprint/internal/geom"
	"geofootprint/internal/par"
	"geofootprint/internal/sketch"
)

// This file binds FootprintDB to the columnar snapshot format
// (internal/colstore): conversion in both directions, the single
// crash-atomic writer seam (WriteColumnarFS — the colwrite analyzer
// flags columnar encodes anywhere else on a persistence path), the
// load paths and their error classification, and the columnar view
// the flattened kernels dispatch on.
//
// A database opened from a columnar file carries two extra things:
//
//   - db.cols, the dense column view (core.RegionCols + CSR starts).
//     An opened database (Open) holds its regions only there:
//     Footprints stays nil, and every row reader — the kernels through
//     the dispatch helpers (UserSimilarity, RegionWeight), everything
//     else through Row, AppendRow and RowLen — reads the columns.
//     Results are bit-for-bit identical to the slice kernels over the
//     AoS footprints. (The sketch blocks need no view of their own:
//     db.Sketches are slices of them.) The first mutation detaches the
//     view (the columns describe state that no longer exists), and
//     detachCols is where the AoS Footprints are built, once, by one
//     O(regions) transpose; Load does the same transpose up front for
//     the callers that want the slices, and keeps the view.
//   - db.colSrc, which pins the snapshot (and its mmap, when the load
//     was zero-copy) for the lifetime of the database. Norms and the
//     sketch cell blocks alias the mapping directly; detaching the
//     fast-path view must NOT unmap, so this reference survives
//     detachCols and is copied to every Freeze snapshot.

// ErrCorruptSnapshot marks a snapshot file that exists but cannot be
// trusted — no columnar magic, failed CRC, truncation, impossible
// geometry, an unknown version — as opposed to one that is merely absent (plain os.IsNotExist).
// Callers distinguish the two to report "durable state is damaged"
// (geoserve refuses to start, or serves degraded with the error in
// /healthz) instead of a generic load failure.
var ErrCorruptSnapshot = errors.New("store: corrupt snapshot")

func corruptSnapshot(path string, err error) error {
	return fmt.Errorf("%w: %s: %w", ErrCorruptSnapshot, path, err)
}

// colView is the columnar fast-path state: dense parallel columns in
// CSR layout, aliasing the loaded snapshot. Shared (by pointer) with
// Freeze snapshots, hence never mutated in place — detachment replaces
// the pointer.
type colView struct {
	regions core.RegionCols
	starts  []int64
}

// Columnar converts the database to a colstore.Snapshot, flattening
// the per-user slices into dense columns in stored (MinX-sorted)
// order; a database whose column view is attached hands its columns
// over as they are. meta is an opaque blob stored in the file's
// CRC-guarded meta section (nil for none); the ingest checkpoint keeps
// its sequence number and open sessions there. The snapshot aliases
// db.Norms, the region columns and the sketch payloads; it is valid
// only while db is unmutated (encode immediately, as Save and the
// checkpoint do).
func (db *FootprintDB) Columnar(meta []byte) *colstore.Snapshot {
	users := db.Len()
	snap := &colstore.Snapshot{
		Name:  db.Name,
		Meta:  meta,
		IDs:   make([]int64, users),
		Norms: db.Norms,
		MBRs:  make([]float64, 4*users),
	}
	for u, id := range db.IDs {
		snap.IDs[u] = int64(id)
	}
	if c := db.cols; c != nil {
		snap.Starts = c.starts
		snap.MinX, snap.MinY, snap.MaxX, snap.MaxY, snap.Weight =
			c.regions.MinX, c.regions.MinY, c.regions.MaxX, c.regions.MaxY, c.regions.W
	} else {
		total := db.NumRegions()
		snap.Starts = make([]int64, users+1)
		snap.MinX = make([]float64, total)
		snap.MinY = make([]float64, total)
		snap.MaxX = make([]float64, total)
		snap.MaxY = make([]float64, total)
		snap.Weight = make([]float64, total)
		off := 0
		for u, f := range db.Footprints {
			snap.Starts[u] = int64(off)
			for _, r := range f {
				snap.MinX[off] = r.Rect.MinX
				snap.MinY[off] = r.Rect.MinY
				snap.MaxX[off] = r.Rect.MaxX
				snap.MaxY[off] = r.Rect.MaxY
				snap.Weight[off] = r.Weight
				off++
			}
		}
		snap.Starts[users] = int64(off)
	}
	if len(db.MBRs) == users {
		for u, m := range db.MBRs {
			snap.MBRs[4*u+0] = m.MinX
			snap.MBRs[4*u+1] = m.MinY
			snap.MBRs[4*u+2] = m.MaxX
			snap.MBRs[4*u+3] = m.MaxY
		}
	}
	if db.SketchesEnabled() {
		cells := 0
		for i := range db.Sketches {
			cells += len(db.Sketches[i].Cells)
		}
		snap.SketchG = db.SketchParams.G
		d := db.SketchParams.Domain
		snap.Domain = [4]float64{d.MinX, d.MinY, d.MaxX, d.MaxY}
		snap.CellStarts = make([]int64, users+1)
		snap.Cells = make([]int32, 0, cells)
		snap.CellMass = make([]float32, 0, cells)
		snap.CellPeak = make([]float32, 0, cells)
		snap.CellRoot = make([]float64, 0, cells)
		for u := range db.Sketches {
			snap.CellStarts[u] = int64(len(snap.Cells))
			sk := &db.Sketches[u]
			snap.Cells = append(snap.Cells, sk.Cells...)
			snap.CellMass = append(snap.CellMass, sk.Mass...)
			snap.CellPeak = append(snap.CellPeak, sk.Peak...)
			snap.CellRoot = append(snap.CellRoot, sk.Root...)
		}
		snap.CellStarts[users] = int64(len(snap.Cells))
	}
	return snap
}

// FromColumnar builds an opened FootprintDB over a decoded columnar
// snapshot, copying no region: the column view serves every row read,
// Norms and the per-user sketch slices alias the snapshot's columns
// (and therefore the mmap on the zero-copy path), and Footprints stays
// nil until the first mutation builds it (detachCols). Only IDs and
// MBRs — O(users) — are converted. A snapshot from a version-1 file
// has no peak block; it is derived once here, in parallel, from the
// stored rows (sketch.FillPeak, the function Build uses), so its bits
// are those a version-2 file would hold.
func FromColumnar(snap *colstore.Snapshot) (*FootprintDB, error) {
	users := snap.NumUsers()
	db := &FootprintDB{
		Name:  snap.Name,
		IDs:   make([]int, users),
		Norms: snap.Norms,
		MBRs:  make([]geom.Rect, users),
		cols: &colView{
			regions: core.RegionCols{
				MinX: snap.MinX, MinY: snap.MinY,
				MaxX: snap.MaxX, MaxY: snap.MaxY, W: snap.Weight,
			},
			starts: snap.Starts,
		},
		colSrc: snap,
	}
	for u := range db.IDs {
		db.IDs[u] = int(snap.IDs[u])
		db.MBRs[u] = geom.Rect{
			MinX: snap.MBRs[4*u+0], MinY: snap.MBRs[4*u+1],
			MaxX: snap.MBRs[4*u+2], MaxY: snap.MBRs[4*u+3],
		}
	}
	if db.Norms == nil {
		db.Norms = []float64{}
	}
	if snap.HasSketches() {
		p := sketch.Params{G: snap.SketchG, Domain: geom.Rect{
			MinX: snap.Domain[0], MinY: snap.Domain[1],
			MaxX: snap.Domain[2], MaxY: snap.Domain[3],
		}}
		if !p.Valid() {
			return nil, corruptSnapshot(snap.Name,
				fmt.Errorf("sketch sections present but raster params %+v are invalid", p))
		}
		db.SketchParams = p
		if snap.CellPeak == nil {
			snap.CellPeak = make([]float32, len(snap.Cells))
			par.For(users, 0, 256, func(_, first, end int) {
				var row core.Footprint
				for u := first; u < end; u++ {
					lo, hi := snap.CellStarts[u], snap.CellStarts[u+1]
					row = db.AppendRow(row[:0], u)
					sketch.FillPeak(row, p, snap.Cells[lo:hi], snap.CellPeak[lo:hi])
				}
			})
		}
		db.Sketches = make([]sketch.Sketch, users)
		for u := range db.Sketches {
			lo, hi := snap.CellStarts[u], snap.CellStarts[u+1]
			db.Sketches[u] = sketch.Sketch{
				Cells: snap.Cells[lo:hi:hi],
				Mass:  snap.CellMass[lo:hi:hi],
				Peak:  snap.CellPeak[lo:hi:hi],
				Root:  snap.CellRoot[lo:hi:hi],
			}
		}
	}
	return db, nil
}

// footprints transposes the columns into AoS footprints: one backing
// array for all regions, the per-user footprints capacity-bounded
// subslices of it, so an AppendRoIs on one user can never grow into
// its neighbour's regions. The transpose is chunked across CPUs; each
// goroutine owns a disjoint range, so the result is deterministic.
func (c *colView) footprints() []core.Footprint {
	users := len(c.starts) - 1
	regions := make([]core.Region, c.starts[users])
	r := &c.regions
	par.For(len(regions), 0, 1<<14, func(_, lo, hi int) {
		fillRegions(regions[lo:hi], r.MinX[lo:hi], r.MinY[lo:hi], r.MaxX[lo:hi], r.MaxY[lo:hi], r.W[lo:hi])
	})
	fps := make([]core.Footprint, users)
	for u := range fps {
		lo, hi := c.starts[u], c.starts[u+1]
		fps[u] = core.Footprint(regions[lo:hi:hi])
	}
	return fps
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

// WriteColumnar writes snap to path on the real OS filesystem; see
// WriteColumnarFS.
func WriteColumnar(path string, snap *colstore.Snapshot) error {
	return WriteColumnarFS(faultfs.OS, path, snap)
}

// WriteColumnarFS is the single sanctioned seam for putting columnar
// snapshot bytes on a persistence path: the encode runs inside
// WriteFileAtomicFS (temp file, fsync, rename, parent-directory
// fsync), so the file at path is always a complete CRC-consistent
// snapshot or the previous one — never torn. The colwrite analyzer
// flags Snapshot.EncodeTo on persistence paths outside this function.
func WriteColumnarFS(fsys faultfs.FS, path string, snap *colstore.Snapshot) error {
	return WriteFileAtomicFS(fsys, path, func(w io.Writer) error {
		if err := snap.EncodeTo(w); err != nil {
			return fmt.Errorf("store: encoding %s: %w", path, err)
		}
		return nil
	})
}

// LoadColumnar loads a columnar snapshot with an explicit mapping mode
// — `geomigrate verify` uses it to pin down exactly which load path
// ran — and materialises it (see Load). Errors are classified as
// OpenMetaFS classifies them.
func LoadColumnar(path string, mode colstore.Mode) (*FootprintDB, error) {
	db, _, err := openFS(faultfs.OS, path, mode)
	if err != nil {
		return nil, err
	}
	db.materialise()
	return db, nil
}

// OpenMetaFS opens a columnar snapshot through fsys with ModeAuto
// mapping, column-only (see Open), and returns its meta blob (nil for
// none) beside the database; the ingest checkpoint keeps its state
// there. Every failure is absent (os.IsNotExist), untrustworthy
// (ErrCorruptSnapshot: a file without the columnar magic, a damaged
// file or an unknown version) or an I/O error.
func OpenMetaFS(fsys faultfs.FS, path string) (*FootprintDB, []byte, error) {
	return openFS(fsys, path, colstore.ModeAuto)
}

func openFS(fsys faultfs.FS, path string, mode colstore.Mode) (*FootprintDB, []byte, error) {
	snap, err := colstore.OpenFS(fsys, path, mode)
	switch {
	case err == nil:
	case errors.Is(err, colstore.ErrNotColumnar) || errors.Is(err, colstore.ErrCorrupt) || errors.Is(err, colstore.ErrVersion):
		return nil, nil, corruptSnapshot(path, err)
	default:
		// Open/stat/read errors (including absence) pass through
		// untouched so os.IsNotExist keeps working on them.
		return nil, nil, err
	}
	db, err := FromColumnar(snap)
	if err != nil {
		return nil, nil, err
	}
	return db, snap.Meta, nil
}

// ---- columnar fast-path state on FootprintDB ----

// ColumnarBacked reports whether queries against this database run the
// flattened columnar kernels (true until the first mutation after a
// columnar load).
func (db *FootprintDB) ColumnarBacked() bool { return db.cols != nil }

// colsOnly reports whether the columns are the database's only copy of
// its regions: opened, and not yet written.
func (db *FootprintDB) colsOnly() bool { return db.cols != nil && db.Footprints == nil }

// Backing names where the database's regions live, for /healthz:
// "columns" while an opened database holds them only in its snapshot's
// columns, "materialised" once the AoS Footprints exist (a write to an
// opened database, Load, or a database built in memory).
func (db *FootprintDB) Backing() string {
	if db.colsOnly() {
		return "columns"
	}
	return "materialised"
}

// materialise builds the AoS Footprints from the columns of an opened
// database, keeping the column view. Load runs it up front; otherwise
// only detachCols does, at the first write.
func (db *FootprintDB) materialise() {
	if db.colsOnly() {
		db.Footprints = db.cols.footprints()
	}
}

// detachCols is called by every mutation that changes footprint
// geometry or the user axis: the columns describe state that no
// longer exists, so the rows must live in the AoS Footprints from now
// on. On an opened database this is where they are built — the one
// O(regions) transpose an opened database ever pays, at its first
// write. The view pointer is replaced, never mutated — frozen epochs
// sharing the old pointer keep serving their (still consistent)
// pre-mutation state. colSrc survives so the mmap backing Norms/sketch
// aliases stays alive. The sketch transpose goes too: it is indexed by
// the user axis and holds copies of the sketch rows.
func (db *FootprintDB) detachCols() {
	db.materialise()
	db.cols = nil
	db.dropPostings()
}

// UserSimilarity is the Algorithm 4 similarity of stored user u
// against query footprint q with norm qnorm — the one kernel every
// search method and the engine refine through. Columnar-backed
// databases run the flattened SimilarityJoinCols over the dense
// columns; otherwise the classic SimilarityJoin over the user's
// region slice. Bit-for-bit identical results.
//
//geo:hotpath
func (db *FootprintDB) UserSimilarity(u int, q core.Footprint, qnorm float64) float64 {
	if c := db.cols; c != nil {
		return core.SimilarityJoinCols(&c.regions, int(c.starts[u]), int(c.starts[u+1]), q, db.Norms[u], qnorm)
	}
	return core.SimilarityJoin(db.Footprints[u], q, db.Norms[u], qnorm)
}

// UserSketchDot is the sketch bound sum of stored user u against the
// query sketch by the reference merge join (sketch.BoundDot). On a
// columnar-backed database the stored sketch is a slice of the on-file
// blocks; the values are the same either way.
//
//geo:hotpath
func (db *FootprintDB) UserSketchDot(u int, qsk *sketch.Sketch) float64 {
	return sketch.BoundDot(&db.Sketches[u], qsk)
}

// RegionWeight returns the weight of region r of user u (the RoI-index
// accumulation reads it per R-tree hit).
//
//geo:hotpath
func (db *FootprintDB) RegionWeight(u, r int) float64 {
	if c := db.cols; c != nil {
		return c.regions.W[int(c.starts[u])+r]
	}
	return db.Footprints[u][r].Weight
}
