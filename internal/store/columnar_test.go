package store

import (
	"bytes"
	"errors"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"geofootprint/internal/colstore"
	"geofootprint/internal/core"
	"geofootprint/internal/faultfs"
	"geofootprint/internal/geom"
	"geofootprint/internal/sketch"
)

// columnarTestDB builds a deterministic random database with norms,
// MBRs, and (optionally) sketches — the full persisted state.
func columnarTestDB(t *testing.T, users int, sketches bool) *FootprintDB {
	t.Helper()
	rng := rand.New(rand.NewSource(77))
	fps := randFootprints(rng, users, 6)
	ids := make([]int, users)
	for i := range ids {
		ids[i] = i*7 + 3
	}
	db, err := FromFootprints("columnar-test", ids, fps)
	if err != nil {
		t.Fatalf("FromFootprints: %v", err)
	}
	if sketches {
		db.EnableSketches(16, 2)
	}
	return db
}

// sameDB asserts bitwise equality of everything the snapshot persists.
func sameDB(t *testing.T, want, got *FootprintDB) {
	t.Helper()
	if want.Name != got.Name {
		t.Fatalf("name %q != %q", got.Name, want.Name)
	}
	if len(want.IDs) != len(got.IDs) {
		t.Fatalf("users %d != %d", len(got.IDs), len(want.IDs))
	}
	for i := range want.IDs {
		if want.IDs[i] != got.IDs[i] {
			t.Fatalf("id[%d] %d != %d", i, got.IDs[i], want.IDs[i])
		}
		if math.Float64bits(want.Norms[i]) != math.Float64bits(got.Norms[i]) {
			t.Fatalf("norm[%d] %v != %v", i, got.Norms[i], want.Norms[i])
		}
		if want.MBRs[i] != got.MBRs[i] {
			t.Fatalf("mbr[%d] %+v != %+v", i, got.MBRs[i], want.MBRs[i])
		}
		fw, fg := want.Footprints[i], got.Footprints[i]
		if len(fw) != len(fg) {
			t.Fatalf("footprint[%d] has %d regions, want %d", i, len(fg), len(fw))
		}
		for r := range fw {
			if fw[r] != fg[r] {
				t.Fatalf("region[%d][%d] %+v != %+v", i, r, fg[r], fw[r])
			}
		}
	}
	if want.SketchParams != got.SketchParams {
		t.Fatalf("sketch params %+v != %+v", got.SketchParams, want.SketchParams)
	}
	if len(want.Sketches) != len(got.Sketches) {
		t.Fatalf("sketch count %d != %d", len(got.Sketches), len(want.Sketches))
	}
	for i := range want.Sketches {
		sw, sg := &want.Sketches[i], &got.Sketches[i]
		if len(sw.Cells) != len(sg.Cells) {
			t.Fatalf("sketch[%d] has %d cells, want %d", i, len(sg.Cells), len(sw.Cells))
		}
		for c := range sw.Cells {
			if sw.Cells[c] != sg.Cells[c] ||
				math.Float32bits(sw.Mass[c]) != math.Float32bits(sg.Mass[c]) ||
				math.Float32bits(sw.Peak[c]) != math.Float32bits(sg.Peak[c]) ||
				math.Float64bits(sw.Root[c]) != math.Float64bits(sg.Root[c]) {
				t.Fatalf("sketch[%d] cell %d differs", i, c)
			}
		}
	}
}

// TestColumnarRoundTripModes loads one saved file through both the
// heap-copy and zero-copy paths and requires bit-exact state.
func TestColumnarRoundTripModes(t *testing.T) {
	for _, sketches := range []bool{false, true} {
		db := columnarTestDB(t, 40, sketches)
		path := filepath.Join(t.TempDir(), "snap.col")
		if err := db.Save(path); err != nil {
			t.Fatalf("save: %v", err)
		}
		rd, err := LoadColumnar(path, colstore.ModeRead)
		if err != nil {
			t.Fatalf("read-mode load: %v", err)
		}
		sameDB(t, db, rd)
		if !rd.ColumnarBacked() {
			t.Fatal("read-mode load did not keep the columnar fast path")
		}
		mm, err := LoadColumnar(path, colstore.ModeMmap)
		if err != nil {
			t.Skipf("mmap unavailable on this platform: %v", err)
		}
		sameDB(t, db, mm)
		if !mm.ColumnarBacked() {
			t.Fatal("mmap load did not keep the columnar fast path")
		}
	}
}

// TestGobColumnarGobRoundTrip reads a legacy gob file, saves it as
// columnar, reads that back and re-encodes it in the gob wire form: the
// two gob encodings must be byte-identical, so the migration loses
// nothing, peaks included.
func TestGobColumnarGobRoundTrip(t *testing.T) {
	db := columnarTestDB(t, 60, true)
	dir := t.TempDir()
	gobA := filepath.Join(dir, "a.gob")
	col := filepath.Join(dir, "b.col")

	if err := WriteFileAtomicFS(faultfs.OS, gobA, func(w io.Writer) error { return encodeGobForTest(w, db) }); err != nil {
		t.Fatalf("write gob: %v", err)
	}
	fromGob, err := Load(gobA)
	if err != nil {
		t.Fatalf("load gob: %v", err)
	}
	if fromGob.ColumnarBacked() {
		t.Fatal("gob load should not claim columnar backing")
	}
	if err := fromGob.Save(col); err != nil {
		t.Fatalf("save columnar: %v", err)
	}
	fromCol, err := Load(col)
	if err != nil {
		t.Fatalf("load columnar: %v", err)
	}
	var b bytes.Buffer
	if err := encodeGobForTest(&b, fromCol); err != nil {
		t.Fatalf("re-encode gob: %v", err)
	}
	a, err := os.ReadFile(gobA)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b.Bytes()) {
		t.Fatalf("gob -> columnar -> gob is not byte-identical (%d vs %d bytes)", len(a), b.Len())
	}
	if !bytes.Contains(a, []byte("Peak")) {
		t.Fatal("the gob file carries no Peak field")
	}
	sameDB(t, db, fromGob)
	sameDB(t, db, fromCol)
}

// TestColumnarDispatchMatchesAoS checks the //geo:hotpath dispatch
// helpers give bitwise-identical answers on the columnar fast path and
// after detaching to the slice-of-structs fallback.
func TestColumnarDispatchMatchesAoS(t *testing.T) {
	db := columnarTestDB(t, 50, true)
	path := filepath.Join(t.TempDir(), "snap.col")
	if err := db.Save(path); err != nil {
		t.Fatalf("save: %v", err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	// The same users after detaching to the AoS backing: the dense
	// sketch gather must give Dot's bits on both.
	aos, err := Load(path)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	aos.detachCols()
	if !got.ColumnarBacked() || aos.ColumnarBacked() {
		t.Fatalf("backings: columnar=%v aos=%v", got.ColumnarBacked(), aos.ColumnarBacked())
	}
	rng := rand.New(rand.NewSource(9))
	queries := randFootprints(rng, 8, 5)
	for _, q := range queries {
		core.SortByMinX(q)
		qn := core.Norm(q)
		qsk := sketch.Build(q, got.SketchParams)
		raster := sketch.Rasterize(&qsk, got.SketchParams.G)
		defer raster.Release()
		for u := range got.IDs {
			want := math.Float64bits(sketch.BoundDot(&got.Sketches[u], &qsk))
			if dc, da := sketch.DotDense(&got.Sketches[u], raster.Table()), sketch.DotDense(&aos.Sketches[u], raster.Table()); math.Float64bits(dc) != want || math.Float64bits(da) != want {
				t.Fatalf("DotDense(%d): columnar %v, AoS %v, BoundDot %v", u, dc, da, math.Float64frombits(want))
			}
			fast := got.UserSimilarity(u, q, qn)
			slow := core.SimilarityJoin(got.Footprints[u], q, got.Norms[u], qn)
			if math.Float64bits(fast) != math.Float64bits(slow) {
				t.Fatalf("UserSimilarity(%d) columnar %v != AoS %v", u, fast, slow)
			}
			df := got.UserSketchDot(u, &qsk)
			ds := sketch.BoundDot(&got.Sketches[u], &qsk)
			if math.Float64bits(df) != math.Float64bits(ds) {
				t.Fatalf("UserSketchDot(%d) columnar %v != AoS %v", u, df, ds)
			}
			for r := range got.Footprints[u] {
				if got.RegionWeight(u, r) != got.Footprints[u][r].Weight {
					t.Fatalf("RegionWeight(%d,%d) differs", u, r)
				}
			}
		}
	}
}

// TestColumnarDetachOnMutation: any structural mutation must drop the
// columnar view (the on-disk order no longer describes the database)
// while queries keep working through the fallback path.
func TestColumnarDetachOnMutation(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snap.col")
	fresh := func() *FootprintDB {
		db := columnarTestDB(t, 30, false)
		if err := db.Save(path); err != nil {
			t.Fatalf("save: %v", err)
		}
		got, err := Load(path)
		if err != nil {
			t.Fatalf("load: %v", err)
		}
		if !got.ColumnarBacked() {
			t.Fatal("load did not attach columns")
		}
		return got
	}
	extra := core.Footprint{{Rect: geom.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}, Weight: 1}}

	mutations := map[string]func(db *FootprintDB){
		"upsert":  func(db *FootprintDB) { db.Upsert(9999, extra) },
		"append":  func(db *FootprintDB) { db.AppendRoIs(db.IDs[0], extra) },
		"remove":  func(db *FootprintDB) { db.Remove(db.IDs[0]) },
		"compact": func(db *FootprintDB) { db.Remove(db.IDs[0]); db.Compact() },
	}
	for name, mutate := range mutations {
		db := fresh()
		mutate(db)
		if db.ColumnarBacked() {
			t.Fatalf("%s: columnar view survived a structural mutation", name)
		}
		// Fallback still answers correctly.
		q := db.Footprints[0]
		qn := db.Norms[0]
		want := core.SimilarityJoin(db.Footprints[0], q, db.Norms[0], qn)
		if got := db.UserSimilarity(0, q, qn); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: post-detach UserSimilarity %v != %v", name, got, want)
		}
	}

	// Enabling sketches on a sketch-less columnar file keeps the region
	// fast path: only the cell half of the view must be rebuilt.
	db := fresh()
	db.EnableSketches(16, 2)
	if !db.ColumnarBacked() {
		t.Fatal("EnableSketches dropped the region columns")
	}
	qsk := sketch.Build(db.Footprints[0], db.SketchParams)
	if got, want := db.UserSketchDot(0, &qsk), sketch.BoundDot(&db.Sketches[0], &qsk); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("post-EnableSketches dot %v != %v", got, want)
	}
	db.DisableSketches()
	if !db.ColumnarBacked() {
		t.Fatal("DisableSketches dropped the region columns")
	}
}

// TestColumnarEpochFreeze: a frozen epoch taken before any mutation
// keeps the columnar fast path; the first builder mutation detaches
// the builder's view without disturbing the frozen snapshot.
func TestColumnarEpochFreeze(t *testing.T) {
	db := columnarTestDB(t, 25, false)
	path := filepath.Join(t.TempDir(), "snap.col")
	if err := db.Save(path); err != nil {
		t.Fatalf("save: %v", err)
	}
	loaded, err := Load(path)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	b := NewEpochBuilder(loaded)
	frozen := b.Freeze()
	if !frozen.ColumnarBacked() {
		t.Fatal("pre-mutation freeze lost the columnar view")
	}
	extra := core.Footprint{{Rect: geom.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}, Weight: 1}}
	b.Upsert(424242, extra)
	next := b.Freeze()
	if next.ColumnarBacked() {
		t.Fatal("post-mutation freeze still claims columnar backing")
	}
	if !frozen.ColumnarBacked() {
		t.Fatal("mutation in the builder detached the frozen epoch's view")
	}
	q := frozen.Footprints[3]
	qn := frozen.Norms[3]
	want := core.SimilarityJoin(frozen.Footprints[3], q, frozen.Norms[3], qn)
	if got := frozen.UserSimilarity(3, q, qn); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("frozen epoch similarity %v != %v", got, want)
	}
}

// TestColumnarTornRenameFault: a failed rename mid-snapshot must leave
// the previous snapshot intact and loadable; a torn rename (destination
// unlinked) must surface as absence, never as silent data invention.
func TestColumnarTornRenameFault(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "snap.col")
	db := columnarTestDB(t, 20, true)
	if err := WriteColumnarFS(faultfs.OS, path, db.Columnar(nil)); err != nil {
		t.Fatalf("seed write: %v", err)
	}

	// Failed rename: destination untouched.
	newer := columnarTestDB(t, 35, true)
	fault := faultfs.NewFault(faultfs.OS, faultfs.Schedule{FailRenameN: 1})
	if err := WriteColumnarFS(fault, path, newer.Columnar(nil)); err == nil {
		t.Fatal("rename fault did not propagate")
	}
	got, err := Load(path)
	if err != nil {
		t.Fatalf("load after failed rename: %v", err)
	}
	sameDB(t, db, got)

	// Torn rename: destination lost; the loader must say "absent", not
	// hallucinate or misreport corruption.
	torn := faultfs.NewFault(faultfs.OS, faultfs.Schedule{FailRenameN: 1, TornRename: true})
	if err := WriteColumnarFS(torn, path, newer.Columnar(nil)); err == nil {
		t.Fatal("torn rename did not propagate")
	}
	_, err = Load(path)
	if err == nil {
		t.Fatal("load after torn rename succeeded")
	}
	if !os.IsNotExist(err) {
		t.Fatalf("torn rename should read as absence, got %v", err)
	}
	if errors.Is(err, ErrCorruptSnapshot) {
		t.Fatalf("torn rename misclassified as corruption: %v", err)
	}
}

// TestLoadFaultClassification: Load distinguishes absence, corrupt
// columnar, and corrupt gob — callers branch on these.
func TestLoadFaultClassification(t *testing.T) {
	dir := t.TempDir()

	// Absent.
	_, err := Load(filepath.Join(dir, "absent.col"))
	if !os.IsNotExist(err) {
		t.Fatalf("absent file: want IsNotExist, got %v", err)
	}
	if errors.Is(err, ErrCorruptSnapshot) {
		t.Fatalf("absent file misreported corrupt: %v", err)
	}

	// Corrupt columnar: flip a payload byte after a valid save.
	colPath := filepath.Join(dir, "bad.col")
	db := columnarTestDB(t, 15, true)
	if err := db.Save(colPath); err != nil {
		t.Fatalf("save: %v", err)
	}
	raw, err := os.ReadFile(colPath)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0x40
	if err := os.WriteFile(colPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Load(colPath)
	if !errors.Is(err, ErrCorruptSnapshot) {
		t.Fatalf("flipped byte: want ErrCorruptSnapshot, got %v", err)
	}

	// Truncated columnar.
	truncPath := filepath.Join(dir, "trunc.col")
	if err := db.Save(truncPath); err != nil {
		t.Fatalf("save: %v", err)
	}
	if err := os.Truncate(truncPath, int64(len(raw)/2)); err != nil {
		t.Fatal(err)
	}
	_, err = Load(truncPath)
	if !errors.Is(err, ErrCorruptSnapshot) {
		t.Fatalf("truncated file: want ErrCorruptSnapshot, got %v", err)
	}

	// Garbage that is neither columnar nor gob.
	gobPath := filepath.Join(dir, "bad.gob")
	if err := os.WriteFile(gobPath, bytes.Repeat([]byte{0x5a}, 128), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Load(gobPath)
	if !errors.Is(err, ErrCorruptSnapshot) {
		t.Fatalf("garbage gob: want ErrCorruptSnapshot, got %v", err)
	}

	// Crafted files, every checksum valid: a sketch cell outside the
	// G×G raster, or a raster resolution past sketch.MaxG, in either
	// format. The bound step indexes a dense table by cell id, so these
	// must fail the load — typed — not panic or over-allocate in a query.
	g := db.SketchParams.G
	for name, craft := range map[string]struct {
		db   func(db *FootprintDB)
		snap func(snap *colstore.Snapshot)
	}{
		"cell past the raster": {
			func(db *FootprintDB) { sk := &db.Sketches[3]; sk.Cells[len(sk.Cells)-1] = int32(g * g) },
			func(snap *colstore.Snapshot) { snap.Cells[snap.CellStarts[4]-1] = int32(g * g) },
		},
		"negative cell": {
			func(db *FootprintDB) { db.Sketches[0].Cells[0] = -1 },
			func(snap *colstore.Snapshot) { snap.Cells[0] = -1 },
		},
		"resolution above the maximum": {
			func(db *FootprintDB) { db.SketchParams.G = sketch.MaxG + 1 },
			func(snap *colstore.Snapshot) { snap.SketchG = sketch.MaxG + 1 },
		},
	} {
		snap := columnarTestDB(t, 15, true).Columnar(nil)
		craft.snap(snap)
		crafted := filepath.Join(dir, "crafted.col")
		if err := WriteColumnar(crafted, snap); err != nil {
			t.Fatalf("%s: writing the crafted columnar file: %v", name, err)
		}
		if _, err := Load(crafted); !errors.Is(err, ErrCorruptSnapshot) {
			t.Fatalf("columnar file with %s: want ErrCorruptSnapshot, got %v", name, err)
		}
		bad := columnarTestDB(t, 15, true)
		craft.db(bad)
		craftedGob := filepath.Join(dir, "crafted.gob")
		if err := WriteFileAtomicFS(faultfs.OS, craftedGob, func(w io.Writer) error { return encodeGobForTest(w, bad) }); err != nil {
			t.Fatalf("%s: writing the crafted gob file: %v", name, err)
		}
		if _, err := Load(craftedGob); !errors.Is(err, ErrCorruptSnapshot) {
			t.Fatalf("gob file with %s: want ErrCorruptSnapshot, got %v", name, err)
		}
	}
}
