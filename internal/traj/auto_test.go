package traj

import (
	"bytes"
	"encoding/gob"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestLoadAuto(t *testing.T) {
	d := sampleDataset()
	dir := t.TempDir()

	binPath := filepath.Join(dir, "ds.bin")
	fb, _ := os.Create(binPath)
	if err := WriteBinary(fb, d); err != nil {
		t.Fatal(err)
	}
	fb.Close()
	txtPath := filepath.Join(dir, "ds.csv")
	ft, _ := os.Create(txtPath)
	if err := WriteText(ft, d); err != nil {
		t.Fatal(err)
	}
	ft.Close()

	for _, path := range []string{binPath, txtPath} {
		got, err := LoadAuto(path)
		if err != nil {
			t.Fatalf("LoadAuto(%s): %v", path, err)
		}
		if len(got.Users) != len(d.Users) || got.NumLocations() != d.NumLocations() {
			t.Errorf("LoadAuto(%s): shape mismatch", path)
		}
	}
	// Garbage fails cleanly.
	bad := filepath.Join(dir, "bad")
	os.WriteFile(bad, []byte("zzzz not a dataset"), 0o644)
	if _, err := LoadAuto(bad); err == nil {
		t.Error("garbage accepted")
	}
	// So does a gob stream, the dataset format of older releases.
	var gobBuf bytes.Buffer
	if err := gob.NewEncoder(&gobBuf).Encode(d); err != nil {
		t.Fatal(err)
	}
	gobPath := filepath.Join(dir, "ds.gob")
	os.WriteFile(gobPath, gobBuf.Bytes(), 0o644)
	if _, err := LoadAuto(gobPath); err == nil || !strings.Contains(err.Error(), "matches no known dataset format") {
		t.Errorf("gob stream: err = %v, want no known dataset format", err)
	}
	if _, err := LoadAuto(filepath.Join(dir, "missing")); err == nil {
		t.Error("missing file accepted")
	}
	// Empty file fails cleanly.
	empty := filepath.Join(dir, "empty")
	os.WriteFile(empty, nil, 0o644)
	if _, err := LoadAuto(empty); err == nil {
		t.Error("empty file accepted")
	}
}
