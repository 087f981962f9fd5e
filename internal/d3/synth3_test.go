package d3

import (
	"reflect"
	"sort"
	"testing"

	"geofootprint/internal/extract"
)

func TestBuildingConfigValidate(t *testing.T) {
	good := DefaultBuilding(10, 1)
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	mutations := []func(*BuildingConfig){
		func(c *BuildingConfig) { c.Agents = -1 },
		func(c *BuildingConfig) { c.Levels = 0 },
		func(c *BuildingConfig) { c.PointsPerLevel = 0 },
		func(c *BuildingConfig) { c.VisitsMin = 0 },
		func(c *BuildingConfig) { c.DwellMin = 0 },
		func(c *BuildingConfig) { c.SampleInterval = 0 },
		func(c *BuildingConfig) { c.Jitter = 0 },
		func(c *BuildingConfig) { c.HomeAffinity = 2 },
	}
	for i, mutate := range mutations {
		c := good
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestGenerateBuildingDeterministic(t *testing.T) {
	cfg := DefaultBuilding(8, 5)
	a, ha, err := GenerateBuilding(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, hb, _ := GenerateBuilding(cfg)
	if !reflect.DeepEqual(a, b) || !reflect.DeepEqual(ha, hb) {
		t.Error("same seed produced different buildings")
	}
}

// TestBuildingPipeline: the full Section 8 path on generated data —
// 3D extraction, footprints, norms, the 3D Algorithm 4 ranking — with
// home level as ground truth.
func TestBuildingPipeline(t *testing.T) {
	cfg := DefaultBuilding(30, 11)
	trs, homes, err := GenerateBuilding(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ecfg := extract.Config{Epsilon: 0.02, Tau: 20}
	fps := make([]Footprint3, len(trs))
	norms := make([]float64, len(trs))
	for i, tr := range trs {
		rois := Extract3(tr, ecfg)
		if len(rois) == 0 {
			t.Fatalf("agent %d produced no RoIs", i)
		}
		fps[i] = FromRoIs3(rois, UnitWeight)
		norms[i] = Norm(fps[i])
	}
	// Same-level agents must dominate each agent's three nearest
	// neighbours.
	sameWins := 0
	for a := range fps {
		score := make([]float64, len(fps))
		var others []int
		for b := range fps {
			if score[b] = SimilarityJoin(fps[b], fps[a], norms[b], norms[a]); b != a && score[b] > 0 {
				others = append(others, b)
			}
		}
		sort.SliceStable(others, func(i, j int) bool { return score[others[i]] > score[others[j]] })
		same := 0
		for _, b := range others[:min(3, len(others))] {
			if homes[b] == homes[a] {
				same++
			}
		}
		if same >= 2 {
			sameWins++
		}
	}
	if frac := float64(sameWins) / float64(len(fps)); frac < 0.8 {
		t.Errorf("only %.0f%% of agents have same-level-dominated neighbours", 100*frac)
	}
}
