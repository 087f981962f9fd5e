package store

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"

	"geofootprint/internal/colstore"
	"geofootprint/internal/core"
	"geofootprint/internal/faultfs"
	"geofootprint/internal/geom"
	"geofootprint/internal/sketch"
)

// This file binds FootprintDB to the columnar snapshot format
// (internal/colstore): conversion in both directions, the single
// crash-atomic writer seam (WriteColumnarFS — the colwrite analyzer
// flags columnar encodes anywhere else on a persistence path), format
// sniffing on load with a gob fallback one release behind, and the
// columnar fast-path view the flattened kernels dispatch on.
//
// A database loaded from a columnar file carries two extra things:
//
//   - db.cols, the dense column view (core.RegionCols + CSR starts).
//     The hot-path dispatch helpers (UserSimilarity, RegionWeight) run
//     the flattened kernels when it is present and the classic slice
//     kernels when not; results are bit-for-bit identical either way.
//     (The sketch blocks need no view of their own: db.Sketches are
//     slices of them.) Any mutation
//     of the database detaches the view (the columns describe state
//     that no longer exists), after which the same queries run on the
//     materialised slices — correctness never depends on the view.
//   - db.colSrc, which pins the snapshot (and its mmap, when the load
//     was zero-copy) for the lifetime of the database. Norms and the
//     sketch cell blocks alias the mapping directly; detaching the
//     fast-path view must NOT unmap, so this reference survives
//     detachCols and is copied to every Freeze snapshot.

// ErrCorruptSnapshot marks a snapshot file that exists but cannot be
// trusted — failed CRC, truncation, impossible geometry, undecodable
// gob — as opposed to one that is merely absent (plain os.IsNotExist).
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
// order. meta is an opaque blob stored in the file's CRC-guarded meta
// section (nil for none); the ingest checkpoint keeps its sequence
// number and open sessions there. The snapshot aliases db.Norms and
// the sketch payloads; it is valid only while db is unmutated
// (encode immediately, as Save and the checkpoint do).
func (db *FootprintDB) Columnar(meta []byte) *colstore.Snapshot {
	users := db.Len()
	total := db.NumRegions()
	snap := &colstore.Snapshot{
		Name:   db.Name,
		Meta:   meta,
		IDs:    make([]int64, users),
		Starts: make([]int64, users+1),
		MinX:   make([]float64, total),
		MinY:   make([]float64, total),
		MaxX:   make([]float64, total),
		MaxY:   make([]float64, total),
		Weight: make([]float64, total),
		Norms:  db.Norms,
		MBRs:   make([]float64, 4*users),
	}
	off := 0
	for u, f := range db.Footprints {
		snap.IDs[u] = int64(db.IDs[u])
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

// FromColumnar materialises a FootprintDB from a decoded columnar
// snapshot. The big payloads stay zero-copy where the in-memory
// representation allows it: Norms and the per-user sketch slices alias
// the snapshot's columns (and therefore the mmap on the zero-copy
// path), the AoS Footprints are rebuilt with one O(regions) transpose
// into a single backing array, and the columnar fast-path view is
// attached so the flattened kernels serve queries straight from the
// columns. A snapshot from a version-1 file has no peak block; it is
// derived once here, in parallel, from the stored footprints
// (sketch.FillPeak, the function Build uses), so its bits are those a
// version-2 file would hold.
func FromColumnar(snap *colstore.Snapshot) (*FootprintDB, error) {
	users := snap.NumUsers()
	db := &FootprintDB{
		Name:  snap.Name,
		IDs:   make([]int, users),
		Norms: snap.Norms,
		MBRs:  make([]geom.Rect, users),
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
	// One backing array for all regions; per-user footprints are
	// capacity-bounded subslices so an AppendRoIs on one user can
	// never grow into its neighbour's regions. The transpose is the
	// only O(regions) work on the mmap load path, so it is chunked
	// across CPUs — each goroutine owns a disjoint range, the result is
	// deterministic.
	regions := make([]core.Region, snap.NumRegions())
	transposeRegions(regions, snap)
	db.Footprints = make([]core.Footprint, users)
	for u := range db.Footprints {
		lo, hi := snap.Starts[u], snap.Starts[u+1]
		db.Footprints[u] = core.Footprint(regions[lo:hi:hi])
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
			inParallel(users, 256, func(first, end int) {
				for u := first; u < end; u++ {
					lo, hi := snap.CellStarts[u], snap.CellStarts[u+1]
					sketch.FillPeak(db.Footprints[u], p, snap.Cells[lo:hi], snap.CellPeak[lo:hi])
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
	db.colSrc = snap
	db.cols = &colView{
		regions: core.RegionCols{
			MinX: snap.MinX, MinY: snap.MinY,
			MaxX: snap.MaxX, MaxY: snap.MaxY, W: snap.Weight,
		},
		starts: snap.Starts,
	}
	return db, nil
}

// inParallel runs fn over [0, n) cut into contiguous chunks of at
// least minChunk, one goroutine per chunk and at most GOMAXPROCS
// chunks, and returns when all are done — for load work whose chunks
// write disjoint places, so the result is deterministic.
func inParallel(n, minChunk int, fn func(lo, hi int)) {
	workers := min(runtime.GOMAXPROCS(0), n/minChunk)
	if workers <= 1 {
		fn(0, n)
		return
	}
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += chunk {
		hi := min(lo+chunk, n)
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(lo, hi)
		}()
	}
	wg.Wait()
}

// transposeRegions fills dst from the five parallel columns, in
// parallel for large databases (cold-start latency is dominated by
// this loop).
func transposeRegions(dst []core.Region, snap *colstore.Snapshot) {
	minx, miny, maxx, maxy, w := snap.MinX, snap.MinY, snap.MaxX, snap.MaxY, snap.Weight
	inParallel(len(dst), 1<<14, func(lo, hi int) {
		fillRegions(dst[lo:hi], minx[lo:hi], miny[lo:hi], maxx[lo:hi], maxy[lo:hi], w[lo:hi])
	})
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

// loadFSMode is the shared load path: sniff the format by magic, open
// columnar files through colstore (verifying every checksum), fall
// back to the legacy gob decoder for pre-columnar files, and classify
// every failure as absent (os.IsNotExist), corrupt (ErrCorruptSnapshot)
// or an I/O error.
func loadFSMode(fsys faultfs.FS, path string, mode colstore.Mode) (*FootprintDB, error) {
	snap, err := colstore.OpenFS(fsys, path, mode)
	switch {
	case err == nil:
		db, cerr := FromColumnar(snap)
		if cerr != nil {
			return nil, cerr
		}
		return db, nil
	case errors.Is(err, colstore.ErrNotColumnar):
		return loadGobFS(fsys, path)
	case errors.Is(err, colstore.ErrCorrupt) || errors.Is(err, colstore.ErrVersion):
		return nil, corruptSnapshot(path, err)
	default:
		// Open/stat/read errors (including absence) pass through
		// untouched so os.IsNotExist keeps working on them.
		return nil, err
	}
}

// loadGobFS decodes a legacy gob database file. Decode failures are
// corruption (the file exists and claims to be a snapshot); open
// errors pass through so absence stays os.IsNotExist.
func loadGobFS(fsys faultfs.FS, path string) (*FootprintDB, error) {
	f, err := fsys.Open(path)
	if err != nil {
		return nil, err
	}
	//lint:ignore errdiscard read-only load handle; decode errors are surfaced by DecodeFrom
	defer f.Close()
	db, err := DecodeFrom(bufio.NewReader(f), path)
	if err != nil {
		return nil, corruptSnapshot(path, err)
	}
	return db, nil
}

// LoadFS loads a snapshot of either format (columnar by magic, legacy
// gob otherwise) through an explicit filesystem, with ModeAuto mapping.
func LoadFS(fsys faultfs.FS, path string) (*FootprintDB, error) {
	return loadFSMode(fsys, path, colstore.ModeAuto)
}

// LoadColumnar loads a columnar snapshot with an explicit mapping mode
// and no gob fallback — the restart benchmark and `geomigrate verify`
// use it to pin down exactly which load path ran. A gob file returns
// colstore.ErrNotColumnar.
func LoadColumnar(path string, mode colstore.Mode) (*FootprintDB, error) {
	snap, err := colstore.OpenFS(faultfs.OS, path, mode)
	if err != nil {
		return nil, err
	}
	return FromColumnar(snap)
}

// ---- columnar fast-path state on FootprintDB ----

// ColumnarBacked reports whether queries against this database run the
// flattened columnar kernels (true until the first mutation after a
// columnar load).
func (db *FootprintDB) ColumnarBacked() bool { return db.cols != nil }

// detachCols is called by every mutation that changes footprint
// geometry or the user axis: the columns describe state that no
// longer exists, so the dispatch helpers must fall back to the
// materialised slices. The view pointer is replaced, never mutated —
// frozen epochs sharing the old pointer keep serving their (still
// consistent) pre-mutation state. colSrc survives so the mmap backing
// Norms/sketch aliases stays alive. The sketch transpose goes too: it
// is indexed by the user axis and holds copies of the sketch rows.
func (db *FootprintDB) detachCols() {
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
