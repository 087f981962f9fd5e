// Package store provides FootprintDB, the materialised collection of
// user geo-footprints with their precomputed norms — the preprocessing
// output of Section 5.1 that similarity computation and search build
// on. The database persists in the columnar snapshot format of
// internal/colstore (see columnar.go), its only file format.
package store

import (
	"bufio"
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"sync/atomic"

	"geofootprint/internal/colstore"
	"geofootprint/internal/core"
	"geofootprint/internal/extract"
	"geofootprint/internal/faultfs"
	"geofootprint/internal/par"
	"geofootprint/internal/sketch"
	"geofootprint/internal/traj"
)

// FootprintDB holds, for every user, the geo-footprint F(u), its
// Euclidean norm ||F(u)|| (Equation 2, computed with Algorithm 2) and
// its MBR (the key of the user-centric index of Section 6.2). Users
// are addressed by a dense user index; IDs maps it back to external
// user identifiers. Rows, norms and MBRs live in one layout, chunked
// columns (chunks.go); read them through Row, AppendRow, RowLen, Norm
// and MBR.
//
// Invariant: every stored footprint is sorted by Rect.MinX. All ingest
// paths (Build, FromFootprints, Open, Upsert, AppendRoIs) establish it,
// so the join-based Algorithm 4 — the kernel of every search method —
// never re-sorts a stored row.
type FootprintDB struct {
	Name string
	// IDs is append-only: a user keeps its dense index for the
	// database's lifetime (Remove tombstones), so an epoch shares the
	// builder's backing array up to its own length.
	IDs []int
	// Footprints is an export the store never reads: the rows New,
	// Build and FromFootprints were given, or Load's transpose of the
	// chunks, for the tools and the facade. Open leaves it nil and the
	// first write sets it to nil (the footprintread analyzer flags
	// reads of it outside this package).
	Footprints []core.Footprint
	// Norms is an export under the same contract: the norm column
	// ComputeNorms computed or Open mapped, which the chunks' norms
	// alias; the store never reads it, and the first write sets it to
	// nil. Read norms with Norm.
	Norms []float64

	// SketchParams describes the optional filter layer: per-user grid
	// sketches (internal/sketch, read through Sketch) whose per-cell
	// bound sum against a query's sketch upper-bounds Equation 1
	// similarity. EnableSketches turns the layer on; a zero
	// SketchParams means disabled. When enabled, every dynamic mutation
	// rewrites the row's sketch in its chunk beside its regions, and
	// Save/Load persist them with the rest of the database; on an
	// opened database they are slices of the snapshot's cell blocks.
	SketchParams sketch.Params

	// byID maps the IDs of users [0, mapUsers) to their indexes. It is
	// built on first use, rebuilt when an EpochBuilder starts a new
	// base, and never written once built, so epochs share it. added
	// maps the IDs of the users appended since; an epoch has none and
	// scans IDs[mapUsers:] instead, at most about rebuildAfter users.
	byID     map[int]int
	mapUsers int
	added    map[int]int

	// chunks is the spine of row chunks (chunks.go). colSrc pins the
	// snapshot an opened database was decoded from — and its mmap on
	// the zero-copy path — for as long as the chunks may alias it; it
	// is never cleared. mapped reports that the chunks' regions
	// are still exactly colSrc's columns: no row has been written since
	// Open.
	chunks []*chunk
	colSrc *colstore.Snapshot
	mapped bool

	// base holds the indexes this database shares — the user-centric
	// R-tree and the sketch transpose — with every epoch frozen since
	// they were last built from scratch, and written the users whose
	// rows may differ from what those indexes were built over (base.go).
	// A database that is not an epoch makes its own base on first use,
	// and every write drops it. The atomic means a FootprintDB must not
	// be copied by value.
	base    atomic.Pointer[indexBase]
	written UserSet
}

// Build extracts every user's footprint from the dataset with
// Algorithm 1 under cfg, converts RoIs to regions under the given
// weighting, and precomputes all norms with Algorithm 2. Extraction
// and norm computation run on `workers` goroutines (GOMAXPROCS if
// <= 0).
func Build(d *traj.Dataset, cfg extract.Config, w core.Weighting, workers int) (*FootprintDB, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rois := extract.ExtractDataset(d, cfg, workers)
	ids := make([]int, len(d.Users))
	fps := make([]core.Footprint, len(d.Users))
	for i := range d.Users {
		ids[i] = d.Users[i].ID
		fps[i] = core.FromRoIs(rois[i], w)
	}
	db, err := New(d.Name, ids, fps)
	if err != nil {
		return nil, err
	}
	db.ComputeNorms(workers)
	return db, nil
}

// FromFootprints builds a database from already-materialised
// footprints, precomputing norms and MBRs. The footprints are stored
// as given and sorted by Rect.MinX in place (region order carries no
// meaning); pass copies if the caller depends on its ordering.
func FromFootprints(name string, ids []int, fps []core.Footprint) (*FootprintDB, error) {
	db, err := New(name, ids, fps)
	if err != nil {
		return nil, err
	}
	db.ComputeNorms(0)
	return db, nil
}

// New assembles a database from per-user footprints without computing
// norms — the two-phase form of FromFootprints for callers that meter
// or parallelise the norm pass themselves (the bench harness times
// extraction and norm computation separately). The MinX-sorted
// invariant is established here, and the rows, with their MBRs, are
// copied into the chunks; fps stays as the Footprints export. The
// database is not servable until ComputeNorms has run.
func New(name string, ids []int, fps []core.Footprint) (*FootprintDB, error) {
	if len(ids) != len(fps) {
		return nil, fmt.Errorf("store: %d ids for %d footprints", len(ids), len(fps))
	}
	for _, f := range fps {
		if !core.IsSortedByMinX(f) {
			core.SortByMinX(f)
		}
	}
	db := &FootprintDB{Name: name, IDs: ids, Footprints: fps}
	db.appendRows(fps, make([]float64, len(fps)), nil)
	return db, nil
}

// ComputeNorms (re)computes the norm of every user, on `workers`
// goroutines (GOMAXPROCS if <= 0) — the preprocessing phase of Section
// 5.1 — into one column, the Norms export, which fresh copies of the
// chunk headers slice. MBRs need no pass: every row write stores its
// row's MBR.
func (db *FootprintDB) ComputeNorms(workers int) {
	norms := make([]float64, db.Len())
	par.For(len(db.chunks), workers, 4, func(_, lo, hi int) {
		var row core.Footprint
		for ci := lo; ci < hi; ci++ {
			c := *db.chunks[ci]
			first := ci * chunkUsers
			c.norms = norms[first : first+c.users() : first+c.users()]
			for k := range c.norms {
				row = db.AppendRow(row[:0], first+k)
				c.norms[k] = core.Norm(row)
			}
			db.chunks[ci] = &c
		}
	})
	db.Norms = norms
}

// Len returns the number of users in the database.
func (db *FootprintDB) Len() int { return len(db.IDs) }

// IndexOf returns the dense index of the user with the given external
// ID, or false when absent.
func (db *FootprintDB) IndexOf(id int) (int, bool) {
	if db.byID == nil {
		db.indexIDs()
	}
	if i, ok := db.byID[id]; ok {
		return i, true
	}
	if db.added != nil {
		i, ok := db.added[id]
		return i, ok
	}
	for i := db.mapUsers; i < len(db.IDs); i++ {
		if db.IDs[i] == id {
			return i, true
		}
	}
	return 0, false
}

// indexIDs builds a fresh ID → index map over every user. An epoch's
// map is built before it is published (EpochBuilder.Freeze), so
// concurrent lock-free readers never trigger — and race — the lazy
// build in IndexOf.
func (db *FootprintDB) indexIDs() {
	m := make(map[int]int, len(db.IDs))
	for i, uid := range db.IDs {
		m[uid] = i
	}
	db.byID, db.mapUsers, db.added = m, len(db.IDs), nil
}

// Save writes the database to path in the columnar snapshot format,
// loadable with zero-copy mmap. The write
// is atomic: it goes to a temporary file in the target's directory, is
// fsynced, and is renamed over path only when complete — a crash or
// error at any point leaves an existing database at path untouched.
// Load reads it back.
func (db *FootprintDB) Save(path string) error {
	err := WriteColumnar(path, db.Columnar(nil))
	// The chunks' norms and sketches may alias a memory-mapped snapshot
	// that only db keeps mapped (colSrc; the mapping is unmapped by a
	// finalizer). The snapshot holds the slices, not db, so without
	// this a caller's last use of db could be this call and a GC in
	// the middle of the write would unmap what it is reading.
	runtime.KeepAlive(db)
	return err
}

// WriteFileAtomicFS writes a file through `write` into a temporary file
// next to path, fsyncs it, and renames it over path, on fsys (faultfs.OS
// for the real filesystem) so the crash-matrix tests can drive every
// step — temp-file write, fsync, rename, directory fsync — through a
// deterministic fault schedule. On any error the temporary file is removed and path is
// left exactly as it was. The same-directory temp file keeps the
// rename on one filesystem, which is what makes it atomic.
func WriteFileAtomicFS(fsys faultfs.FS, path string, write func(io.Writer) error) error {
	dir, base := filepath.Split(path)
	if dir == "" {
		// A bare filename must keep the temp file in the working
		// directory: os.CreateTemp("") would fall back to $TMPDIR,
		// often a different filesystem, and the rename would fail
		// with EXDEV.
		dir = "."
	}
	f, err := fsys.CreateTemp(dir, base+".tmp*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	defer func() {
		if tmp != "" {
			_ = f.Close() // cleanup of an already-failed write
			fsys.Remove(tmp)
		}
	}()
	bw := bufio.NewWriter(f)
	if err := write(bw); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		return err
	}
	// CreateTemp creates the file 0600; widen to the usual
	// umask-style mode so the saved file stays readable by other
	// processes, as it was with the plain os.Create path.
	if err := f.Chmod(0o644); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := fsys.Rename(tmp, path); err != nil {
		return err
	}
	tmp = "" // committed; disarm the cleanup
	// Fsync the directory so the rename itself is durable: callers
	// (the ingest checkpoint) truncate the WAL as soon as this
	// returns, and losing the directory entry in a crash while the
	// truncation survives would silently drop acknowledged batches.
	if d, err := fsys.Open(dir); err == nil {
		syncErr := d.Sync()
		closeErr := d.Close()
		if syncErr != nil {
			return syncErr
		}
		if closeErr != nil {
			return closeErr
		}
	}
	return nil
}

// Open opens a database previously written by Save, preferring
// zero-copy mmap: its chunks alias the snapshot's columns, and a write
// copies only the chunk it touches (chunks.go). Footprints stays nil.
// This is the serving load path; what it allocates grows with the
// users, not the regions. A file that is not a columnar snapshot, or one that is
// damaged, reports ErrCorruptSnapshot; a missing file stays
// os.IsNotExist.
func Open(path string) (*FootprintDB, error) {
	db, _, err := openFS(faultfs.OS, path, colstore.ModeAuto)
	return db, err
}

// Load is Open followed by one O(regions) transpose into the AoS
// Footprints export, for the callers (tools, the facade) that read
// them directly; the store itself keeps reading the chunks. Errors are
// Open's.
func Load(path string) (*FootprintDB, error) {
	return LoadColumnar(path, colstore.ModeAuto)
}
