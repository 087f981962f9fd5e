// Package store provides FootprintDB, the materialised collection of
// user geo-footprints with their precomputed norms — the preprocessing
// output of Section 5.1 that similarity computation and search build
// on. The database persists in the columnar snapshot format of
// internal/colstore (see columnar.go); the legacy gob format is still
// read transparently and written via SaveGob, one release behind.
package store

import (
	"bufio"
	"encoding/gob"
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"

	"geofootprint/internal/colstore"
	"geofootprint/internal/core"
	"geofootprint/internal/extract"
	"geofootprint/internal/faultfs"
	"geofootprint/internal/geom"
	"geofootprint/internal/sketch"
	"geofootprint/internal/traj"
)

// FootprintDB holds, for every user, the geo-footprint F(u), its
// Euclidean norm ||F(u)|| (Equation 2, computed with Algorithm 2) and
// its MBR (the key of the user-centric index of Section 6.2). The
// parallel slices are indexed by a dense user index; IDs maps back to
// external user identifiers.
//
// Invariant: every stored footprint is sorted by Rect.MinX. All ingest
// paths (Build, FromFootprints, Load, Upsert, AppendRoIs) establish it,
// so the join-based Algorithm 4 — the kernel of every search method —
// takes its allocation-free sorted fast path on every call instead of
// copying and re-sorting.
type FootprintDB struct {
	Name       string
	IDs        []int
	Footprints []core.Footprint
	Norms      []float64
	MBRs       []geom.Rect

	// SketchParams and Sketches are the optional filter layer:
	// per-user grid sketches (internal/sketch) whose per-cell bound sum
	// against a query's sketch upper-bounds Equation 1 similarity.
	// EnableSketches turns the layer on; a zero SketchParams means
	// disabled. When enabled, every dynamic mutation keeps Sketches
	// aligned with Footprints, and Save/Load persist them with the rest
	// of the database; on a columnar-backed database they are slices of
	// the snapshot's cell blocks.
	SketchParams sketch.Params
	Sketches     []sketch.Sketch

	byID map[int]int // lazily built ID → index

	// Columnar fast-path state (set by FromColumnar, see columnar.go).
	// cols is the dense column view the flattened kernels dispatch on;
	// dropped by detachCols on any mutation. colSrc pins the decoded
	// snapshot — and its mmap on the zero-copy path — for as long as
	// Norms or the sketch slices may alias it; it is never cleared.
	cols   *colView
	colSrc *colstore.Snapshot

	// The sketch layer's cell-major transpose, once this database has
	// served enough gathers to be worth one, and the candidates those
	// gathers bounded so far (see postings.go). Dropped by every
	// mutation; a Freeze snapshot starts without either. The atomics
	// mean a FootprintDB must not be copied by value.
	postings atomic.Pointer[sketch.Postings]
	gathered atomic.Int64
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
	db := &FootprintDB{
		Name:       d.Name,
		IDs:        make([]int, len(d.Users)),
		Footprints: make([]core.Footprint, len(d.Users)),
	}
	for i := range d.Users {
		db.IDs[i] = d.Users[i].ID
		db.Footprints[i] = core.FromRoIs(rois[i], w)
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
// norms or MBRs — the two-phase form of FromFootprints for callers
// that meter or parallelise the norm pass themselves (the bench
// harness times extraction and norm computation separately). The
// MinX-sorted invariant is established here; the database is not
// servable until ComputeNorms has run.
func New(name string, ids []int, fps []core.Footprint) (*FootprintDB, error) {
	if len(ids) != len(fps) {
		return nil, fmt.Errorf("store: %d ids for %d footprints", len(ids), len(fps))
	}
	for _, f := range fps {
		if !core.IsSortedByMinX(f) {
			core.SortByMinX(f)
		}
	}
	return &FootprintDB{Name: name, IDs: ids, Footprints: fps}, nil
}

// ComputeNorms (re)computes the norm and MBR of every footprint, in
// parallel (the preprocessing phase of Section 5.1).
func (db *FootprintDB) ComputeNorms(workers int) {
	n := len(db.Footprints)
	db.Norms = make([]float64, n)
	db.MBRs = make([]geom.Rect, n)
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i, f := range db.Footprints {
			db.Norms[i] = core.Norm(f)
			db.MBRs[i] = f.MBR()
		}
		return
	}
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo, hi := w*chunk, (w+1)*chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				db.Norms[i] = core.Norm(db.Footprints[i])
				db.MBRs[i] = db.Footprints[i].MBR()
			}
		}(lo, hi)
	}
	wg.Wait()
}

// Len returns the number of users in the database.
func (db *FootprintDB) Len() int { return len(db.IDs) }

// IndexOf returns the dense index of the user with the given external
// ID, or false when absent.
func (db *FootprintDB) IndexOf(id int) (int, bool) {
	db.ensureByID()
	i, ok := db.byID[id]
	return i, ok
}

// ensureByID materialises the lazy ID → index map. EpochBuilder.Freeze
// calls it before publishing a snapshot so concurrent lock-free
// readers never trigger (and race) the lazy build.
func (db *FootprintDB) ensureByID() {
	if db.byID != nil {
		return
	}
	m := make(map[int]int, len(db.IDs))
	for i, uid := range db.IDs {
		m[uid] = i
	}
	db.byID = m
}

// NumRegions returns the total number of footprint regions across all
// users.
func (db *FootprintDB) NumRegions() int {
	n := 0
	for _, f := range db.Footprints {
		n += len(f)
	}
	return n
}

// dbWire is the gob wire format, decoupled from unexported fields.
// The sketch fields gob-default to zero, so files written before the
// sketch layer existed load as sketch-disabled databases, and old
// readers skip the unknown fields.
type dbWire struct {
	Name       string
	IDs        []int
	Footprints []core.Footprint
	Norms      []float64
	MBRs       []geom.Rect

	SketchParams sketch.Params
	Sketches     []sketchWire
}

// sketchWire is a sketch as gob carries it. Mass travels as float64,
// as it always has: files written before Mass narrowed to float32 hold
// the unrounded sums, which the decoder rounds up itself (gob's own
// narrowing rounds to nearest). Peak is absent from those files; the
// decoder derives it from the footprint, as the columnar loader does.
type sketchWire struct {
	Cells []int32
	Mass  []float64
	Peak  []float32
	Root  []float64
}

// EncodeTo writes the database's gob wire form to w. Save wraps it in
// an atomic file write; the ingest snapshot embeds it in a larger
// stream.
func (db *FootprintDB) EncodeTo(w io.Writer) error {
	var sketches []sketchWire
	if db.Sketches != nil {
		sketches = make([]sketchWire, len(db.Sketches))
		for u, sk := range db.Sketches {
			mass := make([]float64, len(sk.Mass))
			for i, m := range sk.Mass {
				mass[i] = float64(m)
			}
			sketches[u] = sketchWire{Cells: sk.Cells, Mass: mass, Peak: sk.Peak, Root: sk.Root}
		}
	}
	wire := dbWire{db.Name, db.IDs, db.Footprints, db.Norms, db.MBRs,
		db.SketchParams, sketches}
	err := gob.NewEncoder(w).Encode(&wire)
	// Norms and the sketch slices may alias a memory-mapped snapshot
	// that only db keeps mapped (colSrc; the mapping is unmapped by a
	// finalizer). The wire struct holds the slices, not db, so without
	// this a caller's last use of db could be this call and a GC in
	// the middle of the encode would unmap what it is reading.
	runtime.KeepAlive(db)
	return err
}

// Save writes the database to path in the columnar snapshot format —
// the current on-disk format, loadable with zero-copy mmap. The write
// is atomic: it goes to a temporary file in the target's directory, is
// fsynced, and is renamed over path only when complete — a crash or
// error at any point leaves an existing database at path untouched.
// Use SaveGob for the legacy format (readable by the previous
// release); Load reads both.
func (db *FootprintDB) Save(path string) error {
	err := WriteColumnar(path, db.Columnar(nil))
	runtime.KeepAlive(db) // the snapshot aliases db.Norms; see EncodeTo
	return err
}

// SaveGob writes the database to path in the legacy gob format, with
// the same atomic-rename discipline as Save. It exists one release
// behind the columnar format as a migration escape hatch (geomigrate
// uses it to down-convert); new snapshots should use Save.
func (db *FootprintDB) SaveGob(path string) error {
	return WriteFileAtomic(path, func(w io.Writer) error {
		if err := db.EncodeTo(w); err != nil {
			return fmt.Errorf("store: encoding %s: %w", path, err)
		}
		return nil
	})
}

// WriteFileAtomic writes a file through `write` into a temporary file
// next to path, fsyncs it, and renames it over path, all on the real
// OS filesystem. See WriteFileAtomicFS.
func WriteFileAtomic(path string, write func(io.Writer) error) error {
	return WriteFileAtomicFS(faultfs.OS, path, write)
}

// WriteFileAtomicFS is WriteFileAtomic over an explicit filesystem, so
// the crash-matrix tests can drive every step — temp-file write,
// fsync, rename, directory fsync — through a deterministic fault
// schedule. On any error the temporary file is removed and path is
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

// DecodeFrom reads one database in gob wire form from r, restoring the
// MinX-sorted invariant (see Load for why). name labels errors.
func DecodeFrom(r io.Reader, name string) (*FootprintDB, error) {
	var w dbWire
	if err := gob.NewDecoder(r).Decode(&w); err != nil {
		return nil, fmt.Errorf("store: decoding %s: %w", name, err)
	}
	db := &FootprintDB{Name: w.Name, IDs: w.IDs, Footprints: w.Footprints,
		Norms: w.Norms, MBRs: w.MBRs, SketchParams: w.SketchParams}
	if len(db.Norms) != len(db.IDs) || len(db.Footprints) != len(db.IDs) {
		return nil, fmt.Errorf("store: %s: inconsistent lengths", name)
	}
	if g := db.SketchParams.G; g > sketch.MaxG {
		return nil, fmt.Errorf("store: %s: sketch resolution %d exceeds the maximum %d", name, g, sketch.MaxG)
	}
	if db.SketchesEnabled() && len(w.Sketches) != len(db.IDs) {
		return nil, fmt.Errorf("store: %s: %d sketches for %d users",
			name, len(w.Sketches), len(db.IDs))
	}
	// Databases saved before the sorted-footprint invariant existed may
	// hold unsorted footprints; restoring it here is an O(n) check per
	// footprint for modern files. Their sketch cells, masses and roots
	// (if any) are order-independent, so they stay valid; a peak derived
	// below is derived from the stored order, as Build derives it.
	for _, f := range db.Footprints {
		if !core.IsSortedByMinX(f) {
			core.SortByMinX(f)
		}
	}
	if db.SketchesEnabled() {
		db.Sketches = make([]sketch.Sketch, len(w.Sketches))
		for u, ws := range w.Sketches {
			sk := sketch.Sketch{Cells: ws.Cells, Peak: ws.Peak, Root: ws.Root, Mass: make([]float32, len(ws.Mass))}
			for i, m := range ws.Mass {
				sk.Mass[i] = sketch.Float32Up(m)
			}
			if sk.Peak == nil && len(sk.Cells) > 0 {
				sk.Peak = make([]float32, len(sk.Cells))
				sketch.FillPeak(db.Footprints[u], db.SketchParams, sk.Cells, sk.Peak)
			}
			// The bound step indexes a G×G table by cell id, so a sketch
			// the file got wrong must fail the load, not a query.
			if !sk.InRange(db.SketchParams.G) {
				return nil, fmt.Errorf("store: %s: user %d sketch is malformed for a %d×%d raster",
					name, u, db.SketchParams.G, db.SketchParams.G)
			}
			db.Sketches[u] = sk
		}
	}
	return db, nil
}

// Load reads a database previously written by Save (columnar,
// preferring zero-copy mmap) or by the legacy gob writer — the format
// is sniffed from the file magic. Corrupt files of either format
// report ErrCorruptSnapshot; a missing file stays os.IsNotExist.
func Load(path string) (*FootprintDB, error) {
	return LoadFS(faultfs.OS, path)
}
