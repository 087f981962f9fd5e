package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"geofootprint/internal/colstore"
	"geofootprint/internal/store"
)

// TestMain lets the test binary stand in for geomigrate: run with
// GEOMIGRATE_MAIN set, it is the command.
func TestMain(m *testing.M) {
	if os.Getenv("GEOMIGRATE_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func geomigrate(t *testing.T, args ...string) string {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, args...)
	cmd.Env = append(os.Environ(), "GEOMIGRATE_MAIN=1")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("geomigrate %v: %v\n%s", args, err, out)
	}
	return string(out)
}

// TestConvertRewritesVersion1: convert reads a version-1 columnar file
// and writes the current version, whose sketches — peaks included —
// equal, bit for bit, what the version-1 file opens as; info names both
// versions and verify passes the result.
func TestConvertRewritesVersion1(t *testing.T) {
	v1 := "../../internal/store/testdata/v1-sketch.col"
	out := filepath.Join(t.TempDir(), "v2.col")
	if info := geomigrate(t, "info", "-in", v1); !strings.Contains(info, "columnar v1") || !strings.Contains(info, "geomigrate convert") {
		t.Fatalf("info on the version-1 fixture: %s", info)
	}
	geomigrate(t, "convert", "-in", v1, "-out", out)
	if info := geomigrate(t, "info", "-in", out); !strings.Contains(info, "columnar v2") {
		t.Fatalf("info on the rewrite: %s", info)
	}
	if v := geomigrate(t, "verify", "-in", out); !strings.Contains(v, "mmap and read paths agree") {
		t.Fatalf("verify on the rewrite: %s", v)
	}
	snap, err := colstore.Open(out, colstore.ModeRead)
	if err != nil || snap.Version != colstore.Version || snap.CellPeak == nil {
		t.Fatalf("the rewrite opens as version %d with peaks %v (err %v)", snap.Version, snap.CellPeak != nil, err)
	}
	before, err := store.Load(v1)
	if err != nil {
		t.Fatal(err)
	}
	after, err := store.Load(out)
	if err != nil {
		t.Fatal(err)
	}
	if err := diffDBs(before, after); err != nil {
		t.Fatalf("version 1 and its rewrite differ: %v", err)
	}
}
