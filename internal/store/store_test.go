package store

import (
	"math"
	"math/rand"
	"path/filepath"
	"testing"

	"geofootprint/internal/core"
	"geofootprint/internal/extract"
	"geofootprint/internal/geom"
	"geofootprint/internal/traj"
)

func almostEq(a, b float64) bool {
	const eps = 1e-9
	d := math.Abs(a - b)
	return d <= eps || d <= eps*math.Max(math.Abs(a), math.Abs(b))
}

func randFootprints(rng *rand.Rand, users, maxRegions int) []core.Footprint {
	fps := make([]core.Footprint, users)
	for u := range fps {
		n := 1 + rng.Intn(maxRegions)
		f := make(core.Footprint, n)
		for i := range f {
			x, y := rng.Float64(), rng.Float64()
			f[i] = core.Region{
				Rect: geom.Rect{
					MinX: x, MinY: y,
					MaxX: x + rng.Float64()*0.05,
					MaxY: y + rng.Float64()*0.05,
				},
				Weight: 1,
			}
		}
		fps[u] = f
	}
	return fps
}

func dwellDataset(rng *rand.Rand, users int) *traj.Dataset {
	d := &traj.Dataset{Name: "synthetic", SampleInterval: 1}
	for u := 0; u < users; u++ {
		tr := make(traj.Trajectory, 0, 120)
		for c := 0; c < 3; c++ {
			// Three dwell clusters of 40 samples each, far apart.
			cx, cy := rng.Float64(), rng.Float64()
			for i := 0; i < 40; i++ {
				tr = append(tr, traj.Location{
					P: geom.Point{X: cx + rng.Float64()*0.001, Y: cy + rng.Float64()*0.001},
					T: float64(len(tr)),
				})
			}
		}
		d.Users = append(d.Users, traj.User{ID: u * 3, Sessions: []traj.Trajectory{tr}})
	}
	return d
}

func TestBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := dwellDataset(rng, 30)
	cfg := extract.Config{Epsilon: 0.02, Tau: 10}
	db, err := Build(d, cfg, core.UnitWeight, 4)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if db.Len() != 30 {
		t.Fatalf("Len = %d, want 30", db.Len())
	}
	for i := range db.Footprints {
		if len(db.Footprints[i]) != 3 {
			t.Errorf("user %d: %d regions, want 3", i, len(db.Footprints[i]))
		}
		if want := core.Norm(db.Footprints[i]); !almostEq(db.Norm(i), want) {
			t.Errorf("user %d: stored norm %v, want %v", i, db.Norm(i), want)
		}
		if db.MBR(i) != db.Footprints[i].MBR() {
			t.Errorf("user %d: stale MBR", i)
		}
	}
	if db.IDs[5] != 15 {
		t.Errorf("ID[5] = %d, want 15", db.IDs[5])
	}
}

func TestBuildRejectsBadConfig(t *testing.T) {
	d := &traj.Dataset{}
	if _, err := Build(d, extract.Config{Epsilon: -1, Tau: 1}, core.UnitWeight, 1); err == nil {
		t.Error("Build with invalid config should fail")
	}
}

func TestFromFootprints(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	fps := randFootprints(rng, 20, 5)
	ids := make([]int, len(fps))
	for i := range ids {
		ids[i] = 100 + i
	}
	db, err := FromFootprints("t", ids, fps)
	if err != nil {
		t.Fatalf("FromFootprints: %v", err)
	}
	if db.Len() != 20 {
		t.Errorf("Len = %d", db.Len())
	}
	idx, ok := db.IndexOf(105)
	if !ok || idx != 5 {
		t.Errorf("IndexOf(105) = %d, %v", idx, ok)
	}
	if _, ok := db.IndexOf(9999); ok {
		t.Error("IndexOf of absent ID should be false")
	}
	if _, err := FromFootprints("bad", []int{1}, fps); err == nil {
		t.Error("mismatched lengths should fail")
	}
}

func TestComputeNormsParallelMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	fps := randFootprints(rng, 200, 10)
	ids := make([]int, len(fps))
	for i := range ids {
		ids[i] = i
	}
	seq, _ := FromFootprints("seq", ids, fps)
	seq.ComputeNorms(1)
	par, _ := FromFootprints("par", ids, fps)
	par.ComputeNorms(8)
	for i := range seq.IDs {
		if seq.Norm(i) != par.Norm(i) {
			t.Fatalf("user %d: norms differ: %v vs %v", i, seq.Norm(i), par.Norm(i))
		}
		if seq.MBR(i) != par.MBR(i) {
			t.Fatalf("user %d: MBRs differ", i)
		}
	}
}

func TestNumRegions(t *testing.T) {
	fps := []core.Footprint{make(core.Footprint, 3), make(core.Footprint, 7), nil}
	db, _ := FromFootprints("n", []int{1, 2, 3}, fps)
	if got := db.NumRegions(); got != 10 {
		t.Errorf("NumRegions = %d, want 10", got)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	fps := randFootprints(rng, 25, 8)
	ids := make([]int, len(fps))
	for i := range ids {
		ids[i] = i * 7
	}
	db, _ := FromFootprints("round", ids, fps)
	path := filepath.Join(t.TempDir(), "db.col")
	if err := db.Save(path); err != nil {
		t.Fatalf("Save: %v", err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if got.Name != "round" || got.Len() != db.Len() {
		t.Fatalf("loaded shape mismatch")
	}
	for i := range db.IDs {
		if got.IDs[i] != db.IDs[i] || got.Norm(i) != db.Norm(i) || got.MBR(i) != db.MBR(i) {
			t.Fatalf("user %d mismatch after round trip", i)
		}
		if len(got.Footprints[i]) != len(db.Footprints[i]) {
			t.Fatalf("user %d footprint length mismatch", i)
		}
		for j := range db.Footprints[i] {
			if got.Footprints[i][j] != db.Footprints[i][j] {
				t.Fatalf("user %d region %d mismatch", i, j)
			}
		}
	}
	// IndexOf still works on a loaded DB.
	if idx, ok := got.IndexOf(ids[3]); !ok || idx != 3 {
		t.Errorf("IndexOf after load = %d, %v", idx, ok)
	}
}

func TestLoadMissing(t *testing.T) {
	if _, err := Load(filepath.Join(t.TempDir(), "absent.col")); err == nil {
		t.Error("Load of missing file should fail")
	}
}
