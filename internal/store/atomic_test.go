package store

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"geofootprint/internal/core"
	"geofootprint/internal/faultfs"
	"geofootprint/internal/geom"
)

func testDB(t *testing.T, name string) *FootprintDB {
	t.Helper()
	db, err := FromFootprints(name, []int{1, 2}, []core.Footprint{
		{{Rect: geom.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}, Weight: 1}},
		{{Rect: geom.Rect{MinX: 2, MinY: 2, MaxX: 3, MaxY: 3}, Weight: 2},
			{Rect: geom.Rect{MinX: 2.5, MinY: 2, MaxX: 4, MaxY: 3}, Weight: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// A writer that fails partway through must leave an existing database
// at the target path byte-for-byte intact — the atomic-Save guarantee.
func TestPartialWriteNeverCorruptsExistingDB(t *testing.T) {
	path := filepath.Join(t.TempDir(), "users.db")
	good := testDB(t, "good")
	if err := good.Save(path); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Simulated crash mid-write: emit some bytes, then fail, exactly
	// what a full disk or a killed process leaves behind.
	fail := errors.New("simulated partial write")
	err = WriteFileAtomicFS(faultfs.OS, path, func(w io.Writer) error {
		if _, err := w.Write([]byte("partial garbage that must never reach the target")); err != nil {
			return err
		}
		return fail
	})
	if !errors.Is(err, fail) {
		t.Fatalf("WriteFileAtomicFS error = %v, want simulated failure", err)
	}

	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(before) != string(after) {
		t.Fatal("target file changed despite failed write")
	}
	db, err := Load(path)
	if err != nil {
		t.Fatalf("existing DB unloadable after failed save: %v", err)
	}
	if !reflect.DeepEqual(db.IDs, good.IDs) || !reflect.DeepEqual(db.Footprints, good.Footprints) {
		t.Fatal("recovered DB differs from original")
	}

	// No temp litter left behind.
	ents, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.Contains(e.Name(), ".tmp") {
			t.Errorf("leftover temp file %s", e.Name())
		}
	}
}

func TestSaveOverwritesAtomically(t *testing.T) {
	path := filepath.Join(t.TempDir(), "users.db")
	if err := testDB(t, "v1").Save(path); err != nil {
		t.Fatal(err)
	}
	v2 := testDB(t, "v2")
	v2.Upsert(3, core.Footprint{{Rect: geom.Rect{MaxX: 1, MaxY: 1}, Weight: 1}})
	if err := v2.Save(path); err != nil {
		t.Fatal(err)
	}
	db, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if db.Name != "v2" || db.Len() != 3 {
		t.Fatalf("loaded %s with %d users, want v2 with 3", db.Name, db.Len())
	}
}

// A bare relative filename (no directory component) is what the
// documented defaults produce — `geoserve -wal ingest.wal` snapshots
// to ingest.wal.snap, `geoextract -out foo.db` saves to foo.db. The
// temp file must land in the working directory, not $TMPDIR (often a
// different filesystem, where the rename would fail with EXDEV), and
// the result must be world-readable like a plain os.Create file.
func TestWriteFileAtomicBareFilename(t *testing.T) {
	dir := t.TempDir()
	orig, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(orig)

	db := testDB(t, "bare")
	if err := db.Save("users.db"); err != nil {
		t.Fatalf("Save to bare filename: %v", err)
	}
	got, err := Load("users.db")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.IDs, db.IDs) {
		t.Fatal("bare-filename round-trip lost data")
	}
	fi, err := os.Stat("users.db")
	if err != nil {
		t.Fatal(err)
	}
	if perm := fi.Mode().Perm(); perm != 0o644 {
		t.Errorf("saved file mode = %o, want 644", perm)
	}

	// Overwrite through WriteFileAtomicFS directly, still bare.
	if err := WriteFileAtomicFS(faultfs.OS, "users.db", func(w io.Writer) error {
		_, err := w.Write([]byte("v2"))
		return err
	}); err != nil {
		t.Fatalf("WriteFileAtomicFS to bare filename: %v", err)
	}
	b, err := os.ReadFile("users.db")
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != "v2" {
		t.Fatalf("content = %q, want %q", b, "v2")
	}
}
