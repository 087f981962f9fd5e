// Package geofootprint implements similarity search over
// geo-footprints, a from-scratch reproduction of "Similarity Search
// based on Geo-footprints" (Michalopoulos et al., EDBT 2024).
//
// A geo-footprint concisely summarises where a mobile user dwells
// inside a supervised (e.g. indoor) space: the set of rectangular
// regions of interest extracted from the user's trajectories, where
// overlap encodes visit frequency. Footprints support a cosine-style
// similarity (continuous-space dot product of frequency functions
// divided by Euclidean norms) that powers nearest-neighbour search,
// recommendation and clustering.
//
// The typical pipeline:
//
//	cfg := geofootprint.DefaultExtraction()          // ε=0.02, τ=30
//	db, _ := geofootprint.BuildDB(dataset, cfg)      // Alg. 1 + Alg. 2
//	idx := geofootprint.NewUserCentricIndex(db)      // Sec. 6.2 index
//	top := idx.TopK(db.Row(q), 5)                    // most similar users
//
// This root package is a thin façade over the internal packages; it
// exposes everything a downstream application needs: the trajectory
// model, footprint extraction, the similarity algorithms (plane-sweep
// Algorithm 3 and join-based Algorithm 4), the three top-k search
// methods of Section 6, average-link clustering (Section 7), the
// duration-weight and 3D extensions (Section 8), and the synthetic
// indoor-mobility generator used by the evaluation harness.
package geofootprint

import (
	"fmt"

	"geofootprint/internal/cluster"
	"geofootprint/internal/core"
	"geofootprint/internal/engine"
	"geofootprint/internal/extract"
	"geofootprint/internal/geom"
	"geofootprint/internal/search"
	"geofootprint/internal/store"
	"geofootprint/internal/synth"
	"geofootprint/internal/traj"
)

// Geometric primitives.
type (
	// Point is a position in the plane.
	Point = geom.Point
	// Rect is a closed axis-aligned rectangle, the shape of every
	// region of interest.
	Rect = geom.Rect
)

// Trajectory model (Definition 3.1).
type (
	// Location is one tracked position with its timestamp.
	Location = traj.Location
	// Trajectory is a regularly sampled sequence of locations (one
	// session, e.g. a store visit).
	Trajectory = traj.Trajectory
	// User is a tracked user with temporally disjoint sessions.
	User = traj.User
	// Dataset is a collection of users (one evaluation "part").
	Dataset = traj.Dataset
)

// Footprints and extraction (Sections 3-4).
type (
	// RoI is an extracted region of interest (Definition 3.2).
	RoI = extract.RoI
	// ExtractionConfig holds the ε and τ bounds of Definition 3.2.
	ExtractionConfig = extract.Config
	// Region is one weighted region of a geo-footprint.
	Region = core.Region
	// Footprint is a user's geo-footprint (Definition 3.3).
	Footprint = core.Footprint
	// WeightedRect is one element of a footprint's disjoint-region
	// decomposition.
	WeightedRect = core.WeightedRect
	// Weighting selects unit (frequency) or duration weights.
	Weighting = core.Weighting
)

// Weighting values.
const (
	// UnitWeight counts each RoI once (the base model).
	UnitWeight = core.UnitWeight
	// DurationWeight weights each RoI by stay duration (Section 8).
	DurationWeight = core.DurationWeight
)

// DefaultExtraction returns the paper's extraction parameters:
// ε=0.02 and τ=30 (≈2 m and ≈3 s in the ATC setting).
func DefaultExtraction() ExtractionConfig {
	return ExtractionConfig{Epsilon: 0.02, Tau: 30}
}

// ExtractRoIs runs Algorithm 1 on a single trajectory.
func ExtractRoIs(t Trajectory, cfg ExtractionConfig) []RoI {
	return extract.Extract(t, cfg)
}

// ExtractFootprint extracts a user's geo-footprint across all
// sessions under the given weighting (Definition 3.3).
func ExtractFootprint(u *User, cfg ExtractionConfig, w Weighting) Footprint {
	return core.FromRoIs(extract.ExtractUser(u, cfg), w)
}

// Norm computes the footprint norm ||F|| (Equation 2) with the
// plane-sweep Algorithm 2.
func Norm(f Footprint) float64 { return core.Norm(f) }

// DisjointRegions decomposes a footprint into disjoint rectangles with
// total weights (Section 5.1).
func DisjointRegions(f Footprint) []WeightedRect { return core.DisjointRegions(f) }

// Similarity computes sim(F(r), F(s)) (Equation 1) in one pass,
// deriving both norms (the combined variant of Algorithm 3).
func Similarity(fr, fs Footprint) float64 { return core.Similarity(fr, fs) }

// SimilaritySweep is Algorithm 3 with precomputed norms.
func SimilaritySweep(fr, fs Footprint, normR, normS float64) float64 {
	return core.SimilaritySweep(fr, fs, normR, normS)
}

// SimilarityJoin is Algorithm 4: join-based similarity with
// precomputed norms — the fastest exact method.
func SimilarityJoin(fr, fs Footprint, normR, normS float64) float64 {
	return core.SimilarityJoin(fr, fs, normR, normS)
}

// FootprintDB is the materialised footprint collection with
// precomputed norms (the preprocessing of Section 5.1).
type FootprintDB = store.FootprintDB

// BuildDB extracts all footprints of a dataset and precomputes their
// norms, using all CPUs.
func BuildDB(d *Dataset, cfg ExtractionConfig) (*FootprintDB, error) {
	return store.Build(d, cfg, core.UnitWeight, 0)
}

// BuildWeightedDB is BuildDB with duration weights (Section 8).
func BuildWeightedDB(d *Dataset, cfg ExtractionConfig) (*FootprintDB, error) {
	return store.Build(d, cfg, core.DurationWeight, 0)
}

// NewDB builds a database from already-materialised footprints.
func NewDB(name string, ids []int, fps []Footprint) (*FootprintDB, error) {
	return store.FromFootprints(name, ids, fps)
}

// LoadDB reads a database saved with FootprintDB.Save.
func LoadDB(path string) (*FootprintDB, error) { return store.Load(path) }

// Search (Section 6).
type (
	// Result is one ranked user: external ID and similarity score.
	Result = search.Result
	// Searcher answers top-k footprint similarity queries.
	Searcher = search.Searcher
	// RoIIndex is the Section 6.1 R-tree over all RoIs, supporting
	// iterative (6.1.1) and batch (6.1.2) search.
	RoIIndex = search.RoIIndex
	// UserCentricIndex is the Section 6.2 R-tree over footprint
	// MBRs, refined with Algorithm 4.
	UserCentricIndex = search.UserCentricIndex
	// LinearScan is the index-free baseline.
	LinearScan = search.LinearScan
)

// NewLinearScan returns the index-free baseline searcher.
func NewLinearScan(db *FootprintDB) *LinearScan { return search.NewLinearScan(db) }

// NewRoIIndex indexes every RoI of every footprint (Section 6.1) with
// STR bulk loading.
func NewRoIIndex(db *FootprintDB) *RoIIndex {
	return search.NewRoIIndex(db, search.BuildSTR, 0)
}

// NewUserCentricIndex indexes one MBR per user (Section 6.2) with STR
// bulk loading.
func NewUserCentricIndex(db *FootprintDB) *UserCentricIndex {
	return search.NewUserCentricIndex(db, search.BuildSTR, 0)
}

// Parallel query execution (internal/engine).
type (
	// QueryEngine executes top-k similarity queries: one on its
	// caller's goroutine, a batch across a worker pool, with results
	// byte-identical to the serial search paths.
	QueryEngine = engine.QueryEngine
	// CandidateSource is what a search method is to the engine: it
	// nominates the users worth scoring. *UserCentricIndex is one;
	// RoIIndex.Iterative and RoIIndex.Batch return the Section 6.1 ones.
	CandidateSource = search.Source
)

// NewQueryEngine builds a query engine over db that scores src's
// candidates, its batches on `workers` workers (<= 0: GOMAXPROCS).
func NewQueryEngine(db *FootprintDB, src CandidateSource, workers int) *QueryEngine {
	return engine.New(db, src, workers)
}

// MostSimilarUsers is the recommender-system entry point (Section 1):
// the k users most similar to user id, excluding the user itself.
func MostSimilarUsers(db *FootprintDB, idx Searcher, id, k int) ([]Result, error) {
	i, ok := db.IndexOf(id)
	if !ok {
		return nil, errUnknownUser(id)
	}
	res := idx.TopK(db.Row(i), k+1)
	out := res[:0]
	for _, r := range res {
		if r.ID != id {
			out = append(out, r)
		}
	}
	if len(out) > k {
		out = out[:k]
	}
	return out, nil
}

// Clustering (Section 7).
type (
	// Linkage selects the agglomerative merge criterion.
	Linkage = cluster.Linkage
	// DistMatrix is a condensed pairwise distance matrix.
	DistMatrix = cluster.Matrix
	// CharacteristicConfig controls characteristic-region
	// extraction (Figure 3(b)).
	CharacteristicConfig = cluster.CharacteristicConfig
)

// Linkage values.
const (
	// AverageLink is the paper's clustering criterion.
	AverageLink = cluster.AverageLink
	// SingleLink uses minimum pairwise distance.
	SingleLink = cluster.SingleLink
	// CompleteLink uses maximum pairwise distance.
	CompleteLink = cluster.CompleteLink
)

// FootprintDistances computes the pairwise distance matrix
// 1 − sim(F(i), F(j)) for the selected users.
func FootprintDistances(db *FootprintDB, idxs []int) *DistMatrix {
	return cluster.DistanceMatrix(db, idxs, 0)
}

// ClusterUsers clusters n users (given their distance matrix) into k
// groups; the matrix is consumed.
func ClusterUsers(m *DistMatrix, k int, link Linkage) ([]int, error) {
	return cluster.Agglomerative(m, k, link)
}

// CharacteristicRegions returns, per cluster, the map cells visited by
// that cluster's members and (almost) nobody else (Figure 3(b)).
func CharacteristicRegions(db *FootprintDB, idxs, labels []int, k int, cfg CharacteristicConfig) ([][]Rect, error) {
	return cluster.CharacteristicRegions(db, idxs, labels, k, cfg)
}

// Synthetic data generation (the evaluation's ATC substitute).
type (
	// SynthConfig parameterises the indoor-mobility simulator.
	SynthConfig = synth.Config
)

// SynthPart returns the generator preset for evaluation part "A"-"D"
// at the given scale (1.0 = the paper's user counts).
func SynthPart(part string, scale float64) (SynthConfig, error) {
	return synth.PartConfig(part, scale)
}

// GenerateDataset runs the simulator, returning the dataset and the
// ground-truth persona of every user.
func GenerateDataset(cfg SynthConfig) (*Dataset, []int, error) {
	return synth.Generate(cfg)
}

func errUnknownUser(id int) error {
	return fmt.Errorf("geofootprint: unknown user ID %d", id)
}
