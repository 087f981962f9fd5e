package store

import (
	"bytes"
	"errors"
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
	"geofootprint/internal/traj"
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
		if math.Float64bits(want.Norm(i)) != math.Float64bits(got.Norm(i)) {
			t.Fatalf("norm[%d] %v != %v", i, got.Norm(i), want.Norm(i))
		}
		if want.MBR(i) != got.MBR(i) {
			t.Fatalf("mbr[%d] %+v != %+v", i, got.MBR(i), want.MBR(i))
		}
		fw, fg := want.Row(i), got.Row(i)
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
	wantSketches, gotSketches := sketchesOf(want), sketchesOf(got)
	if len(wantSketches) != len(gotSketches) {
		t.Fatalf("sketch count %d != %d", len(gotSketches), len(wantSketches))
	}
	for i := range wantSketches {
		sw, sg := &wantSketches[i], &gotSketches[i]
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
		mm, err := LoadColumnar(path, colstore.ModeMmap)
		if err != nil {
			t.Skipf("mmap unavailable on this platform: %v", err)
		}
		sameDB(t, db, mm)
	}
}

// TestColumnarDispatchMatchesAoS checks the //geo:hotpath row readers
// of a loaded database against the slice kernels over its AoS export,
// and its sketches against the in-memory source's, bit for bit.
func TestColumnarDispatchMatchesAoS(t *testing.T) {
	mem := columnarTestDB(t, 50, true)
	path := filepath.Join(t.TempDir(), "snap.col")
	if err := mem.Save(path); err != nil {
		t.Fatalf("save: %v", err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatalf("load: %v", err)
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
			want := math.Float64bits(sketch.BoundDot(got.Sketch(u), &qsk))
			if dc, dm := sketch.DotDense(got.Sketch(u), raster.Table()), sketch.DotDense(mem.Sketch(u), raster.Table()); math.Float64bits(dc) != want || math.Float64bits(dm) != want {
				t.Fatalf("DotDense(%d): loaded %v, in memory %v, BoundDot %v", u, dc, dm, math.Float64frombits(want))
			}
			fast := got.UserSimilarity(u, q, qn)
			slow := core.SimilarityJoin(got.Footprints[u], q, got.Norm(u), qn)
			if math.Float64bits(fast) != math.Float64bits(slow) {
				t.Fatalf("UserSimilarity(%d) columnar %v != AoS %v", u, fast, slow)
			}
			df := got.UserSketchDot(u, &qsk)
			ds := sketch.BoundDot(got.Sketch(u), &qsk)
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

// TestColumnarMutationKeepsKernel: after every kind of write to a
// loaded database the Footprints export is gone, and the kernel over
// the rewritten chunks scores every row with SimilarityJoin's bits over
// Row, sketches included.
func TestColumnarMutationKeepsKernel(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snap.col")
	if err := columnarTestDB(t, 150, true).Save(path); err != nil {
		t.Fatalf("save: %v", err)
	}
	extra := core.Footprint{{Rect: geom.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}, Weight: 1}}

	mutations := map[string]func(db *FootprintDB){
		"upsert":  func(db *FootprintDB) { db.Upsert(9999, append(core.Footprint(nil), extra...)) },
		"replace": func(db *FootprintDB) { db.Upsert(db.IDs[70], append(core.Footprint(nil), extra...)) },
		"append":  func(db *FootprintDB) { db.AppendRoIs(db.IDs[0], extra) },
		"remove":  func(db *FootprintDB) { db.Remove(db.IDs[130]) },
	}
	for name, mutate := range mutations {
		db, err := Load(path)
		if err != nil {
			t.Fatalf("load: %v", err)
		}
		mutate(db)
		if db.Footprints != nil {
			t.Fatalf("%s: the write kept the Footprints export", name)
		}
		q := db.Row(1)
		qn := core.Norm(q)
		qsk := sketch.Build(q, db.SketchParams)
		for u := range db.IDs {
			row := db.Row(u)
			if !core.IsSortedByMinX(row) || math.Float64bits(core.Norm(row)) != math.Float64bits(db.Norm(u)) || row.MBR() != db.MBR(u) {
				t.Fatalf("%s: row %d disagrees with its norm or MBR", name, u)
			}
			want := core.SimilarityJoin(row, q, db.Norm(u), qn)
			if got := db.UserSimilarity(u, q, qn); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: UserSimilarity(%d) %v != %v", name, u, got, want)
			}
			sk := sketch.Build(row, db.SketchParams)
			if got, want := db.UserSketchDot(u, &qsk), sketch.BoundDot(&sk, &qsk); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: UserSketchDot(%d) %v != %v", name, u, got, want)
			}
		}
	}
}

// TestColumnarEpochFreeze: an epoch frozen before any write keeps
// serving the mapped columns — its rows and its encoding unchanged —
// while the builder writes and freezes on.
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
	if !frozen.mapped {
		t.Fatal("pre-mutation freeze lost the mapped columns")
	}
	extra := core.Footprint{{Rect: geom.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}, Weight: 1}}
	b.Upsert(424242, extra)
	b.AppendRoIs(db.IDs[3], extra)
	if next := b.Freeze(); next.mapped || next.Len() != 26 {
		t.Fatal("post-mutation freeze still claims the mapped columns")
	}
	if !frozen.mapped {
		t.Fatal("mutation in the builder changed the frozen epoch")
	}
	sameDB(t, db, frozen)
	q := frozen.Row(3)
	qn := frozen.Norm(3)
	want := core.SimilarityJoin(db.Footprints[3], q, db.Norm(3), qn)
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

// TestLoadFaultClassification: Load distinguishes absence from a file
// it cannot trust — damaged, crafted, or not a columnar snapshot at
// all — callers branch on these.
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

	// Files that are not columnar snapshots: garbage, and a trajectory
	// dataset in the binary format geogen writes by default.
	garbage := filepath.Join(dir, "garbage.db")
	if err := os.WriteFile(garbage, bytes.Repeat([]byte{0x5a}, 128), 0o644); err != nil {
		t.Fatal(err)
	}
	dataset := filepath.Join(dir, "partA.bin")
	saveTrajDataset(t, dataset)
	for _, path := range []string{garbage, dataset} {
		if db, err := Load(path); !errors.Is(err, ErrCorruptSnapshot) || !errors.Is(err, colstore.ErrNotColumnar) {
			t.Fatalf("%s: want ErrCorruptSnapshot wrapping ErrNotColumnar, got a database %v and %v", path, db != nil, err)
		}
	}

	// Crafted columnar files, every checksum valid: a sketch cell
	// outside the G×G raster, or a raster resolution past sketch.MaxG.
	// The bound step indexes a dense table by cell id, so these must
	// fail the load — typed — not panic or over-allocate in a query.
	g := db.SketchParams.G
	for name, craft := range map[string]func(snap *colstore.Snapshot){
		"cell past the raster":         func(snap *colstore.Snapshot) { snap.Cells[snap.CellStarts[4]-1] = int32(g * g) },
		"negative cell":                func(snap *colstore.Snapshot) { snap.Cells[0] = -1 },
		"resolution above the maximum": func(snap *colstore.Snapshot) { snap.SketchG = sketch.MaxG + 1 },
	} {
		snap := columnarTestDB(t, 15, true).Columnar(nil)
		craft(snap)
		crafted := filepath.Join(dir, "crafted.col")
		if err := WriteColumnar(crafted, snap); err != nil {
			t.Fatalf("%s: writing the crafted columnar file: %v", name, err)
		}
		if _, err := Load(crafted); !errors.Is(err, ErrCorruptSnapshot) {
			t.Fatalf("columnar file with %s: want ErrCorruptSnapshot, got %v", name, err)
		}
	}
}

// saveTrajDataset writes a small trajectory dataset to path with
// traj.WriteBinary: a file of the wrong kind that a database path can
// be handed by mistake.
func saveTrajDataset(t *testing.T, path string) {
	t.Helper()
	session := traj.Trajectory{{P: geom.Point{X: 0.4, Y: 0.4}, T: 0}, {P: geom.Point{X: 0.41, Y: 0.4}, T: 1}}
	d := &traj.Dataset{Name: "partA", SampleInterval: 1, Users: []traj.User{{ID: 1, Sessions: []traj.Trajectory{session}}}}
	var b bytes.Buffer
	if err := traj.WriteBinary(&b, d); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}
