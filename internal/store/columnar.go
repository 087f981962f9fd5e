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
// flags columnar encodes anywhere else on a persistence path), and the
// load paths and their error classification.
//
// An opened database's chunks alias the snapshot's region columns,
// norm column and cell blocks, and db.colSrc pins the snapshot (and its
// mmap, when the load was zero-copy) for the database's lifetime; it is
// copied to every Freeze snapshot. A write never writes into the
// mapping: it copies the chunk it touches (chunks.go).

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

// Columnar converts the database to a colstore.Snapshot, concatenating
// the chunks into dense columns in stored (MinX-sorted) order; an
// opened database no row has been written to hands its mapped columns
// over as they are. meta is an opaque blob stored in the file's
// CRC-guarded meta section (nil for none); the ingest checkpoint keeps
// its sequence number and open sessions there. The snapshot aliases
// the region columns and the sketch payloads; it is valid only while db
// is unmutated (encode immediately, as Save and the checkpoint do).
func (db *FootprintDB) Columnar(meta []byte) *colstore.Snapshot {
	users := db.Len()
	snap := &colstore.Snapshot{
		Name:  db.Name,
		Meta:  meta,
		IDs:   make([]int64, users),
		Norms: make([]float64, users),
		MBRs:  make([]float64, 4*users),
	}
	for u, id := range db.IDs {
		m := db.MBR(u)
		snap.IDs[u] = int64(id)
		snap.Norms[u] = db.Norm(u)
		snap.MBRs[4*u+0] = m.MinX
		snap.MBRs[4*u+1] = m.MinY
		snap.MBRs[4*u+2] = m.MaxX
		snap.MBRs[4*u+3] = m.MaxY
	}
	if s := db.colSrc; db.mapped {
		snap.Starts, snap.MinX, snap.MinY, snap.MaxX, snap.MaxY, snap.Weight =
			s.Starts, s.MinX, s.MinY, s.MaxX, s.MaxY, s.Weight
	} else {
		all := newChunk(users, db.NumRegions())
		for _, c := range db.chunks {
			all.copyRows(c, 0, c.users())
		}
		r := &all.regions
		snap.Starts, snap.MinX, snap.MinY, snap.MaxX, snap.MaxY, snap.Weight =
			all.starts, r.MinX, r.MinY, r.MaxX, r.MaxY, r.W
	}
	if db.SketchesEnabled() {
		cells := 0
		for u := range users {
			cells += db.Sketch(u).Len()
		}
		snap.SketchG = db.SketchParams.G
		d := db.SketchParams.Domain
		snap.Domain = [4]float64{d.MinX, d.MinY, d.MaxX, d.MaxY}
		snap.CellStarts = make([]int64, users+1)
		snap.Cells = make([]int32, 0, cells)
		snap.CellMass = make([]float32, 0, cells)
		snap.CellPeak = make([]float32, 0, cells)
		snap.CellRoot = make([]float64, 0, cells)
		for u := range users {
			snap.CellStarts[u] = int64(len(snap.Cells))
			sk := db.Sketch(u)
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
// snapshot, copying no region and no norm: its chunks alias the region
// columns, subslice the starts and the norm column, and hold per-user
// sketch slices of the cell blocks (all of them therefore the mmap on
// the zero-copy path); the Norms export is the norm column, and
// Footprints stays nil. Only IDs and MBRs — O(users) — are converted,
// the MBRs once into one array the chunks subslice, and the spine holds
// one pointer per chunkUsers users. A snapshot from a version-1 file
// has no peak block; it is derived once here, in parallel, from the
// stored rows (sketch.FillPeak, the function Build uses), so its bits
// are those a version-2 file would hold.
func FromColumnar(snap *colstore.Snapshot) (*FootprintDB, error) {
	users := snap.NumUsers()
	db := &FootprintDB{
		Name:   snap.Name,
		IDs:    make([]int, users),
		Norms:  snap.Norms,
		colSrc: snap,
		mapped: true,
	}
	mbrs := make([]geom.Rect, users)
	for u := range db.IDs {
		db.IDs[u] = int(snap.IDs[u])
		mbrs[u] = geom.Rect{
			MinX: snap.MBRs[4*u+0], MinY: snap.MBRs[4*u+1],
			MaxX: snap.MBRs[4*u+2], MaxY: snap.MBRs[4*u+3],
		}
	}
	cols := core.RegionCols{MinX: snap.MinX, MinY: snap.MinY, MaxX: snap.MaxX, MaxY: snap.MaxY, W: snap.Weight}
	for lo := 0; lo < users; lo += chunkUsers {
		hi := min(lo+chunkUsers, users)
		db.chunks = append(db.chunks, &chunk{
			regions: cols,
			starts:  snap.Starts[lo : hi+1 : hi+1],
			norms:   snap.Norms[lo:hi:hi],
			mbrs:    mbrs[lo:hi:hi],
		})
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
		all := make([]sketch.Sketch, users)
		for u := range all {
			lo, hi := snap.CellStarts[u], snap.CellStarts[u+1]
			if lo == hi {
				continue // an empty row's sketch is Sketch{}, as sketch.Build makes it
			}
			all[u] = sketch.Sketch{
				Cells: snap.Cells[lo:hi:hi],
				Mass:  snap.CellMass[lo:hi:hi],
				Peak:  snap.CellPeak[lo:hi:hi],
				Root:  snap.CellRoot[lo:hi:hi],
			}
		}
		for ci, c := range db.chunks {
			first := ci * chunkUsers
			c.sketches = all[first : first+c.users() : first+c.users()]
		}
	}
	return db, nil
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
// mapping (see Open), and returns its meta blob (nil for
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

// UserSketchDot is the sketch bound sum of stored user u against the
// query sketch by the reference merge join (sketch.BoundDot). On an
// opened database the stored sketch is a slice of the on-file blocks;
// the values are the same either way.
//
//geo:hotpath
func (db *FootprintDB) UserSketchDot(u int, qsk *sketch.Sketch) float64 {
	return sketch.BoundDot(db.Sketch(u), qsk)
}
