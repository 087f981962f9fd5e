package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"geofootprint/internal/colstore"
	"geofootprint/internal/geom"
	"geofootprint/internal/store"
	"geofootprint/internal/traj"
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

// run runs geomigrate with args and returns its output and exit code.
func run(t *testing.T, args ...string) (string, int) {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, args...)
	cmd.Env = append(os.Environ(), "GEOMIGRATE_MAIN=1")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		t.Fatalf("geomigrate %v: %v", args, err)
	}
	return string(out), cmd.ProcessState.ExitCode()
}

func geomigrate(t *testing.T, args ...string) string {
	t.Helper()
	out, code := run(t, args...)
	if code != 0 {
		t.Fatalf("geomigrate %v: exit %d\n%s", args, code, out)
	}
	return out
}

// TestTrajectoryDatasetRefused: a trajectory dataset in the gob format
// geogen writes is not a database, and every mode says so and exits 1.
func TestTrajectoryDatasetRefused(t *testing.T) {
	dir := t.TempDir()
	dataset := filepath.Join(dir, "partA.gob")
	session := traj.Trajectory{{P: geom.Point{X: 0.4, Y: 0.4}, T: 0}, {P: geom.Point{X: 0.41, Y: 0.4}, T: 1}}
	if err := traj.SaveGob(dataset, &traj.Dataset{Name: "partA", SampleInterval: 1,
		Users: []traj.User{{ID: 1, Sessions: []traj.Trajectory{session}}}}); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "out.col")
	for _, args := range [][]string{
		{"verify", "-in", dataset},
		{"info", "-in", dataset},
		{"convert", "-in", dataset, "-out", out},
	} {
		msg, code := run(t, args...)
		if code != 1 || !strings.Contains(msg, "not a columnar snapshot") {
			t.Errorf("geomigrate %v: exit %d\n%s", args, code, msg)
		}
	}
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Errorf("convert of a dataset wrote %s (stat: %v)", out, err)
	}
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
