package bench

import (
	"time"

	"geofootprint/internal/cluster"
	"geofootprint/internal/geom"
)

// Fig3bResult reproduces the utility experiment of Figure 3(b):
// average-link agglomerative clustering of a user sample into nine
// clusters, and the characteristic regions of each cluster.
type Fig3bResult struct {
	SampleSize     int
	Clusters       int
	ClusterSizes   []int
	Regions        [][]geom.Rect // characteristic cells per cluster
	ASCIIMap       string        // textual analogue of Figure 3(b)
	MatrixSeconds  float64
	ClusterSeconds float64
	// PersonaPurity is measurable here because the generator plants
	// ground-truth personas: the fraction of sampled users whose
	// cluster's majority persona matches their own. The paper can
	// only inspect Figure 3(b) visually; purity quantifies the same
	// claim (footprints separate user groups that visit different
	// areas).
	PersonaPurity float64
}

// Fig3b samples `sample` users (the paper uses 4000 from Part A),
// clusters them into k groups with average-link over footprint
// distance, and extracts characteristic regions on a grid.
func Fig3b(w *Workload, sample, k int, seed int64) (*Fig3bResult, error) {
	idxs := sampleUsers(w.DB, sample, seed)

	start := time.Now()
	m := cluster.DistanceMatrix(w.DB, idxs, 0)
	matrixSecs := time.Since(start).Seconds()

	start = time.Now()
	labels, err := cluster.Agglomerative(m, k, cluster.AverageLink)
	if err != nil {
		return nil, err
	}
	clusterSecs := time.Since(start).Seconds()

	cfg := cluster.DefaultCharacteristicConfig()
	regions, err := cluster.CharacteristicRegions(w.DB, idxs, labels, k, cfg)
	if err != nil {
		return nil, err
	}

	res := &Fig3bResult{
		SampleSize:     len(idxs),
		Clusters:       k,
		ClusterSizes:   make([]int, k),
		Regions:        regions,
		ASCIIMap:       cluster.RenderASCII(regions, cfg.GridN),
		MatrixSeconds:  matrixSecs,
		ClusterSeconds: clusterSecs,
	}
	for _, l := range labels {
		res.ClusterSizes[l]++
	}
	res.PersonaPurity = purity(labels, idxs, w.Personas, k)
	return res, nil
}

// ClusterMethodRow compares one clustering method on the Figure 3(b)
// task against the generator's ground-truth personas.
type ClusterMethodRow struct {
	Method     string
	Seconds    float64
	Purity     float64
	Silhouette float64
}

// ClusterMethods runs average-link (the paper's choice), single-link,
// complete-link and k-medoids on the same sample and reports persona
// purity and silhouette for each — the clustering-method ablation.
func ClusterMethods(w *Workload, sample, k int, seed int64) ([]ClusterMethodRow, error) {
	idxs := sampleUsers(w.DB, sample, seed)
	base := cluster.DistanceMatrix(w.DB, idxs, 0)

	copyM := func() *cluster.Matrix {
		m := cluster.NewMatrix(base.N())
		for i := 0; i < base.N(); i++ {
			for j := i + 1; j < base.N(); j++ {
				m.Set(i, j, base.At(i, j))
			}
		}
		return m
	}

	type method struct {
		name string
		run  func() ([]int, error)
	}
	methods := []method{
		{"average-link", func() ([]int, error) { return cluster.Agglomerative(copyM(), k, cluster.AverageLink) }},
		{"complete-link", func() ([]int, error) { return cluster.Agglomerative(copyM(), k, cluster.CompleteLink) }},
		{"single-link", func() ([]int, error) { return cluster.Agglomerative(copyM(), k, cluster.SingleLink) }},
		{"k-medoids", func() ([]int, error) { return cluster.KMedoids(copyM(), k, seed, 0) }},
	}
	rows := make([]ClusterMethodRow, 0, len(methods))
	for _, m := range methods {
		start := time.Now()
		labels, err := m.run()
		if err != nil {
			return nil, err
		}
		row := ClusterMethodRow{Method: m.name, Seconds: time.Since(start).Seconds()}
		row.Purity = purity(labels, idxs, w.Personas, k)
		if row.Silhouette, err = cluster.Silhouette(base, labels); err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// purity computes the majority-persona purity of the clustering.
func purity(labels, idxs, personas []int, k int) float64 {
	if len(labels) == 0 || personas == nil {
		return 0
	}
	// counts[cluster][persona]
	counts := make(map[int]map[int]int, k)
	for i, l := range labels {
		if counts[l] == nil {
			counts[l] = make(map[int]int)
		}
		counts[l][personas[idxs[i]]]++
	}
	correct := 0
	for _, pc := range counts {
		best := 0
		for _, c := range pc {
			if c > best {
				best = c
			}
		}
		correct += best
	}
	return float64(correct) / float64(len(labels))
}
