package synth

import (
	"math"
	"reflect"
	"testing"

	"geofootprint/internal/core"
	"geofootprint/internal/extract"
)

func TestConfigValidate(t *testing.T) {
	good := NewConfig("x", 10, 1)
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	mutations := []func(*Config){
		func(c *Config) { c.Users = -1 },
		func(c *Config) { c.Zones = 0 },
		func(c *Config) { c.Personas = 0 },
		func(c *Config) { c.SessionsMin = 0 },
		func(c *Config) { c.SessionsMax = c.SessionsMin - 1 },
		func(c *Config) { c.VisitsMin = 0 },
		func(c *Config) { c.DwellMin = 0 },
		func(c *Config) { c.SampleInterval = 0 },
		func(c *Config) { c.WalkSpeed = 0 },
		func(c *Config) { c.JitterRX = 0 },
		func(c *Config) { c.PersonaAffinity = 1.5 },
	}
	for i, mutate := range mutations {
		c := good
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestPartConfig(t *testing.T) {
	for _, part := range []string{"A", "B", "C", "D", "a", "d"} {
		cfg, err := PartConfig(part, 0.01)
		if err != nil {
			t.Fatalf("PartConfig(%q): %v", part, err)
		}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("PartConfig(%q) invalid: %v", part, err)
		}
	}
	full, _ := PartConfig("A", 1.0)
	if full.Users != 278000 {
		t.Errorf("Part A full users = %d, want 278000", full.Users)
	}
	tiny, _ := PartConfig("D", 0.001)
	if tiny.Users != 377 {
		t.Errorf("Part D 0.1%% users = %d, want 377", tiny.Users)
	}
	if _, err := PartConfig("E", 1); err == nil {
		t.Error("unknown part accepted")
	}
	if _, err := PartConfig("A", 0); err == nil {
		t.Error("zero scale accepted")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := NewConfig("det", 20, 42)
	d1, p1, err := Generate(cfg)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	d2, p2, err := Generate(cfg)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if !reflect.DeepEqual(p1, p2) {
		t.Fatal("personas differ across runs with the same seed")
	}
	if !reflect.DeepEqual(d1, d2) {
		t.Fatal("datasets differ across runs with the same seed")
	}
	cfg.Seed = 43
	d3, _, _ := Generate(cfg)
	if reflect.DeepEqual(d1.Users[0].Sessions, d3.Users[0].Sessions) {
		t.Error("different seeds produced identical trajectories")
	}
}

func TestGenerateValidDataset(t *testing.T) {
	cfg := NewConfig("valid", 30, 7)
	d, personas, err := Generate(cfg)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if len(d.Users) != 30 || len(personas) != 30 {
		t.Fatalf("got %d users, %d personas", len(d.Users), len(personas))
	}
	// Definition 3.1: unique users, non-empty sessions sampled every
	// Δt, each ending before the next starts.
	seen := make(map[int]bool, len(d.Users))
	for _, u := range d.Users {
		if seen[u.ID] {
			t.Fatalf("duplicate user ID %d", u.ID)
		}
		seen[u.ID] = true
		last := math.Inf(-1)
		for si, s := range u.Sessions {
			if len(s) == 0 || s[0].T <= last {
				t.Fatalf("user %d session %d is empty or overlaps the one before", u.ID, si)
			}
			for i := 1; i < len(s); i++ {
				if gap := s[i].T - s[i-1].T; math.Abs(gap-d.SampleInterval) > d.SampleInterval/2 {
					t.Fatalf("user %d session %d: gap %v at sample %d, want %v", u.ID, si, gap, i, d.SampleInterval)
				}
			}
			last = s[len(s)-1].T
		}
	}
	for i, p := range personas {
		if p < 0 || p >= cfg.Personas {
			t.Errorf("user %d persona %d out of range", i, p)
		}
	}
	for i := range d.Users {
		u := &d.Users[i]
		ns := len(u.Sessions)
		if ns < cfg.SessionsMin || ns > cfg.SessionsMax {
			t.Errorf("user %d has %d sessions, want [%d,%d]", i, ns, cfg.SessionsMin, cfg.SessionsMax)
		}
		for _, s := range u.Sessions {
			m := s.MBR()
			if m.MinX < 0 || m.MinY < 0 || m.MaxX > 1 || m.MaxY > 1 {
				t.Errorf("user %d leaves the unit square: %v", i, m)
			}
		}
	}
}

func TestGenerateZeroUsers(t *testing.T) {
	cfg := NewConfig("empty", 0, 1)
	d, personas, err := Generate(cfg)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if len(d.Users) != 0 || len(personas) != 0 {
		t.Error("zero-user generation should produce empty dataset")
	}
}

// TestCalibration verifies the Table 1 shape: under the paper's
// extraction parameters the average RoIs per user and average extents
// land near the published statistics.
func TestCalibration(t *testing.T) {
	cfg := NewConfig("cal", 150, 11)
	d, _, err := Generate(cfg)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	ecfg := extract.Config{Epsilon: 0.02, Tau: 30}
	rois := extract.ExtractDataset(d, ecfg, 0)

	var totalRegions int
	var sumX, sumY float64
	for _, rs := range rois {
		totalRegions += len(rs)
		for _, r := range rs {
			sumX += r.Rect.Width()
			sumY += r.Rect.Height()
		}
	}
	avgRegions := float64(totalRegions) / float64(len(rois))
	avgX := sumX / float64(totalRegions)
	avgY := sumY / float64(totalRegions)

	// Paper Part A: 16 regions/user, extents 0.0201 x 0.0172.
	if avgRegions < 12 || avgRegions > 22 {
		t.Errorf("avg regions/user = %.1f, want ≈16 (12-22)", avgRegions)
	}
	if avgX < 0.014 || avgX > 0.024 {
		t.Errorf("avg x-extent = %.4f, want ≈0.020", avgX)
	}
	if avgY < 0.012 || avgY > 0.021 {
		t.Errorf("avg y-extent = %.4f, want ≈0.017", avgY)
	}
	if avgX <= avgY {
		t.Errorf("x-extent (%.4f) should exceed y-extent (%.4f) as in Table 1", avgX, avgY)
	}
}

// TestPersonaSimilarityStructure checks the property the clustering
// experiment relies on: same-persona users are on average more similar
// than different-persona users.
func TestPersonaSimilarityStructure(t *testing.T) {
	cfg := NewConfig("structure", 60, 13)
	d, personas, err := Generate(cfg)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	ecfg := extract.Config{Epsilon: 0.02, Tau: 30}
	rois := extract.ExtractDataset(d, ecfg, 0)
	fps := make([]core.Footprint, len(rois))
	norms := make([]float64, len(rois))
	for i, rs := range rois {
		fps[i] = core.FromRoIs(rs, core.UnitWeight)
		norms[i] = core.Norm(fps[i])
	}
	var sameSum, diffSum float64
	var sameN, diffN int
	for i := 0; i < len(fps); i++ {
		for j := i + 1; j < len(fps); j++ {
			sim := core.SimilarityJoin(fps[i], fps[j], norms[i], norms[j])
			if personas[i] == personas[j] {
				sameSum += sim
				sameN++
			} else {
				diffSum += sim
				diffN++
			}
		}
	}
	sameAvg := sameSum / float64(sameN)
	diffAvg := diffSum / float64(diffN)
	if math.IsNaN(sameAvg) || math.IsNaN(diffAvg) {
		t.Fatal("NaN average similarity")
	}
	if sameAvg <= diffAvg*2 {
		t.Errorf("same-persona avg similarity %.4f not clearly above cross-persona %.4f",
			sameAvg, diffAvg)
	}
}
