package geofootprint

import (
	"context"
	"geofootprint/internal/classify"
	"geofootprint/internal/core"
	"geofootprint/internal/d3"
	"geofootprint/internal/extract"
	"geofootprint/internal/geom"
	"geofootprint/internal/search"
	"geofootprint/internal/traj"
)

// This file exposes the extension surfaces of the library: the
// streaming extractor, the 3D pipeline of Section 8, and the kNN
// classifier built on footprint similarity.

// StreamingExtractor is the online form of Algorithm 1: push locations
// as they arrive, receive finalized RoIs through the emit callback,
// Flush at session end.
type StreamingExtractor = extract.Extractor

// NewStreamingExtractor returns a streaming extractor that calls emit
// for every finalized RoI.
func NewStreamingExtractor(cfg ExtractionConfig, emit func(RoI)) (*StreamingExtractor, error) {
	return extract.NewExtractor(cfg, emit)
}

// 3D extension (Section 8): objects moving in 3D space, 4D RoIs, 3D
// footprints.
type (
	// Point3 is a position in 3D space.
	Point3 = geom.Point3
	// Box3 is a closed axis-aligned 3D box.
	Box3 = geom.Box3
	// Location3 is one tracked 3D position with its timestamp.
	Location3 = d3.Location3
	// Trajectory3 is a regularly sampled 3D location sequence.
	Trajectory3 = d3.Trajectory3
	// RoI3 is an extracted 4D (space × time) region of interest.
	RoI3 = d3.RoI3
	// Region3 is one weighted region of a 3D footprint.
	Region3 = d3.Region3
	// Footprint3 is a user's 3D geo-footprint.
	Footprint3 = d3.Footprint3
)

// ExtractRoIs3 runs the 3D Algorithm 1 on one 3D trajectory.
func ExtractRoIs3(t Trajectory3, cfg ExtractionConfig) []RoI3 {
	return d3.Extract3(t, cfg)
}

// FootprintFromRoIs3 converts 4D RoIs into a 3D footprint. unit selects
// unit weights; otherwise durations are used (Section 8).
func FootprintFromRoIs3(rois []RoI3, unit bool) Footprint3 {
	if unit {
		return d3.FromRoIs3(rois, d3.UnitWeight)
	}
	return d3.FromRoIs3(rois, d3.DurationWeight)
}

// Norm3 computes the 3D footprint norm with the sweep-plane
// generalisation of Algorithm 2 (O(n³), as the paper states).
func Norm3(f Footprint3) float64 { return d3.Norm(f) }

// Similarity3 computes the 3D similarity (volumes in place of areas)
// with the sweep-plane generalisation of Algorithm 3, deriving both
// norms in the same pass.
func Similarity3(fr, fs Footprint3) float64 { return d3.Similarity(fr, fs) }

// SimilarityJoin3 is the 3D Algorithm 4: join-based similarity with
// precomputed norms.
func SimilarityJoin3(fr, fs Footprint3, normR, normS float64) float64 {
	return d3.SimilarityJoin(fr, fs, normR, normS)
}

// BuildingConfig parameterises the 3D mobility generator (the 3D
// counterpart of the Part A-D simulator).
type BuildingConfig = d3.BuildingConfig

// DefaultBuilding returns a three-level building configuration.
func DefaultBuilding(agents int, seed int64) BuildingConfig {
	return d3.DefaultBuilding(agents, seed)
}

// GenerateBuilding simulates 3D agent trajectories, returning them
// with each agent's ground-truth home level.
func GenerateBuilding(cfg BuildingConfig) ([]Trajectory3, []int, error) {
	return d3.GenerateBuilding(cfg)
}

// Classifier predicts user labels (e.g. customer segments) from
// footprint similarity via k-nearest-neighbour voting.
type Classifier = classify.Classifier

// Prediction is a classification result.
type Prediction = classify.Prediction

// NewClassifier builds a kNN classifier over the labelled subset of
// db. labels maps external user IDs to class labels.
func NewClassifier(db *FootprintDB, idx Searcher, labels map[int]string, k int) (*Classifier, error) {
	return classify.New(db, idx, labels, k)
}

// ExtractDataset extracts the RoIs of every user of a dataset in
// parallel, returning one slice per user in d.Users order.
func ExtractDataset(d *Dataset, cfg ExtractionConfig) [][]RoI {
	return extract.ExtractDataset(d, cfg, 0)
}

// Pair is one ranked user pair with its footprint similarity.
type Pair = search.Pair

// TopSimilarPairs returns the k most similar distinct user pairs in
// the index's database (the similarity self-join), best-first, using
// all CPUs.
func TopSimilarPairs(ix *UserCentricIndex, k int) []Pair {
	pairs, _ := search.TopSimilarPairs(context.Background(), ix, k, 0) // never cancels
	return pairs
}

// CompactFootprint rewrites a footprint as its disjoint-region
// decomposition (Section 5.1's alternative representation); norms and
// similarities are preserved exactly.
func CompactFootprint(f Footprint) Footprint { return core.Compact(f) }

// SplitSessions divides a continuous location stream into temporally
// disjoint sessions wherever the sampling gap exceeds maxGap seconds.
func SplitSessions(stream Trajectory, maxGap float64) []Trajectory {
	return traj.SplitSessions(stream, maxGap)
}

// ParamStats summarises one (ε, τ) extraction-parameter choice.
type ParamStats = extract.ParamStats

// SweepExtractionParams evaluates a grid of extraction parameters over
// a dataset, mechanising the paper's tuning procedure ("values that
// led to a reasonable number of RoIs for each user").
func SweepExtractionParams(d *Dataset, epsilons []float64, taus []int) []ParamStats {
	return extract.SweepParams(d, epsilons, taus, extract.DiameterL2, 0)
}

// compile-time checks that the façade searchers satisfy Searcher.
var (
	_ Searcher = (*search.LinearScan)(nil)
	_ Searcher = (*search.RoIIndex)(nil)
	_ Searcher = (*search.UserCentricIndex)(nil)
	_          = core.Footprint(nil)
	_          = traj.Dataset{}
)
