// Package cluster implements agglomerative hierarchical clustering of
// geo-footprints, the utility experiment of Section 7 of the paper:
// users are clustered by footprint similarity with the average-link
// criterion, and each cluster is characterised by the map regions its
// members visit that other clusters do not (Figure 3(b)).
//
// The core algorithm is the nearest-neighbour-chain algorithm, which
// computes the exact average-link hierarchy in O(N²) time after the
// O(N²) distance matrix (average link satisfies reducibility, so
// NN-chain is exact; this is verified against a naive O(N³) greedy
// implementation in the tests).
package cluster

import (
	"fmt"
	"math"
	"sort"

	"geofootprint/internal/core"
	"geofootprint/internal/par"
	"geofootprint/internal/store"
)

// Linkage selects the cluster-distance update rule.
type Linkage int

const (
	// AverageLink merges the pair of clusters with the smallest
	// average pairwise distance — the criterion used in the paper's
	// utility experiment.
	AverageLink Linkage = iota
	// SingleLink uses the minimum pairwise distance.
	SingleLink
	// CompleteLink uses the maximum pairwise distance.
	CompleteLink
)

func (l Linkage) String() string {
	switch l {
	case AverageLink:
		return "average"
	case SingleLink:
		return "single"
	case CompleteLink:
		return "complete"
	default:
		return fmt.Sprintf("Linkage(%d)", int(l))
	}
}

// Merge records one dendrogram node: clusters A and B (identified by
// their smallest member index at merge time) joined at the given
// distance into a cluster of Size points.
type Merge struct {
	A, B     int
	Distance float64
	Size     int
}

// Matrix is a condensed symmetric distance matrix over n items with
// zero diagonal.
type Matrix struct {
	n int
	d []float64
}

// NewMatrix allocates an n×n condensed matrix initialised to zero.
func NewMatrix(n int) *Matrix {
	return &Matrix{n: n, d: make([]float64, n*(n-1)/2)}
}

// N returns the number of items.
func (m *Matrix) N() int { return m.n }

func (m *Matrix) idx(i, j int) int {
	if i > j {
		i, j = j, i
	}
	// Offset of row i in the condensed upper triangle.
	return i*(2*m.n-i-1)/2 + (j - i - 1)
}

// At returns the distance between items i and j (0 when i == j).
func (m *Matrix) At(i, j int) float64 {
	if i == j {
		return 0
	}
	return m.d[m.idx(i, j)]
}

// Set stores the distance between distinct items i and j.
func (m *Matrix) Set(i, j int, v float64) {
	if i == j {
		panic("cluster: Set on diagonal")
	}
	m.d[m.idx(i, j)] = v
}

// DistanceMatrix computes the pairwise footprint distance
// 1 − sim(F(i), F(j)) (Equation 1 via the join-based Algorithm 4) for
// the users of db selected by idxs, using `workers` goroutines
// (GOMAXPROCS if <= 0).
func DistanceMatrix(db *store.FootprintDB, idxs []int, workers int) *Matrix {
	n := len(idxs)
	m := NewMatrix(n)
	rows := make([]core.Footprint, n)
	for i, u := range idxs {
		rows[i] = db.Row(u)
	}
	par.For(n, workers, 1, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			fi := rows[i]
			ni := db.Norm(idxs[i])
			for j := i + 1; j < n; j++ {
				sim := core.SimilarityJoin(fi, rows[j], ni, db.Norm(idxs[j]))
				m.Set(i, j, 1-sim)
			}
		}
	})
	return m
}

// Agglomerative clusters n items into k groups and returns a label in
// [0, k) for every item. The distance matrix is consumed (mutated).
func Agglomerative(m *Matrix, k int, link Linkage) ([]int, error) {
	labels, _, err := AgglomerativeFull(m, k, link)
	return labels, err
}

// AgglomerativeFull additionally returns the full merge history (the
// dendrogram, n-1 merges in NN-chain discovery order). The labels
// correspond to cutting the dendrogram at k clusters.
func AgglomerativeFull(m *Matrix, k int, link Linkage) ([]int, []Merge, error) {
	n := m.n
	if k < 1 || k > n {
		return nil, nil, fmt.Errorf("cluster: k=%d outside [1,%d]", k, n)
	}
	if n == 0 {
		return nil, nil, nil
	}
	merges := nnChain(m, link)
	labels := cutDendrogram(n, merges, k)
	return labels, merges, nil
}

// nnChain runs the nearest-neighbour-chain algorithm, producing all
// n-1 merges of the hierarchy. Clusters are represented by their
// smallest member index; sizes track Lance-Williams updates.
func nnChain(m *Matrix, link Linkage) []Merge {
	n := m.n
	size := make([]int, n)
	active := make([]bool, n)
	for i := range size {
		size[i] = 1
		active[i] = true
	}
	nActive := n
	var merges []Merge
	var chain []int

	for nActive > 1 {
		if len(chain) == 0 {
			// Start a new chain from any active cluster.
			for i := 0; i < n; i++ {
				if active[i] {
					chain = append(chain, i)
					break
				}
			}
		}
		for {
			tip := chain[len(chain)-1]
			// Nearest active neighbour of tip; prefer the previous
			// chain element on ties so reciprocal pairs terminate.
			nn := -1
			best := math.Inf(1)
			if len(chain) >= 2 {
				nn = chain[len(chain)-2]
				best = m.At(tip, nn)
			}
			for j := 0; j < n; j++ {
				if j == tip || !active[j] {
					continue
				}
				if d := m.At(tip, j); d < best {
					best, nn = d, j
				}
			}
			if len(chain) >= 2 && nn == chain[len(chain)-2] {
				// Reciprocal nearest neighbours: merge.
				a, b := tip, nn
				if b < a {
					a, b = b, a
				}
				mergeInto(m, size, active, a, b, link)
				nActive--
				merges = append(merges, Merge{A: a, B: b, Distance: best, Size: size[a]})
				chain = chain[:len(chain)-2]
				break
			}
			chain = append(chain, nn)
		}
	}
	return merges
}

// mergeInto merges cluster b into cluster a (a < b), updating the
// distance of every other active cluster to the merged one with the
// Lance-Williams formula of the chosen linkage.
func mergeInto(m *Matrix, size []int, active []bool, a, b int, link Linkage) {
	na, nb := float64(size[a]), float64(size[b])
	for j := 0; j < m.n; j++ {
		if j == a || j == b || !active[j] {
			continue
		}
		da, db := m.At(a, j), m.At(b, j)
		var d float64
		switch link {
		case SingleLink:
			d = math.Min(da, db)
		case CompleteLink:
			d = math.Max(da, db)
		default: // AverageLink
			d = (na*da + nb*db) / (na + nb)
		}
		m.Set(a, j, d)
	}
	size[a] += size[b]
	active[b] = false
}

// cutDendrogram assigns labels by applying merges in ascending
// distance order (stable on ties by discovery order) until k clusters
// remain, then compacts the union-find roots into labels [0, k).
// Reducible linkages yield monotone dendrograms, so children always
// apply before their parents.
func cutDendrogram(n int, merges []Merge, k int) []int {
	order := make([]int, len(merges))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(x, y int) bool {
		return merges[order[x]].Distance < merges[order[y]].Distance
	})
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	applied := 0
	for _, mi := range order {
		if applied >= n-k {
			break
		}
		ra, rb := find(merges[mi].A), find(merges[mi].B)
		if ra != rb {
			if rb < ra {
				ra, rb = rb, ra
			}
			parent[rb] = ra
			applied++
		}
	}
	labels := make([]int, n)
	next := 0
	rootLabel := map[int]int{}
	for i := 0; i < n; i++ {
		r := find(i)
		l, ok := rootLabel[r]
		if !ok {
			l = next
			rootLabel[r] = l
			next++
		}
		labels[i] = l
	}
	return labels
}
