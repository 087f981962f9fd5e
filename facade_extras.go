package geofootprint

import (
	"io"

	"geofootprint/internal/cluster"
	"geofootprint/internal/geom"
	"geofootprint/internal/search"
	"geofootprint/internal/server"
	"geofootprint/internal/viz"
)

// This file exposes the operational extras of the library: cluster
// quality metrics, batch graph construction, SVG rendering and the
// HTTP service.

// Silhouette returns the mean silhouette coefficient of a labeling
// over a distance matrix, in [-1, 1] (higher is better).
func Silhouette(m *DistMatrix, labels []int) (float64, error) {
	return cluster.Silhouette(m, labels)
}

// SilhouetteSweep clusters for every k in ks and reports the mean
// silhouette per k, for choosing the number of clusters.
func SilhouetteSweep(m *DistMatrix, ks []int, link Linkage) (map[int]float64, error) {
	return cluster.SilhouetteSweep(m, ks, link)
}

// KNNGraph returns, per user, the k most similar other users — the
// footprint kNN graph behind geo-social link recommendation.
func KNNGraph(ix *UserCentricIndex, k int) [][]Result {
	return search.KNNGraph(ix, k, 0)
}

// GridSearcher is the uniform-grid alternative to the RoI R-tree.
type GridSearcher = search.GridIndex

// NewGridSearcher indexes every RoI on an n×n grid over the world
// rectangle.
func NewGridSearcher(db *FootprintDB, world Rect, n int) (*GridSearcher, error) {
	return search.NewGridIndex(db, world, n)
}

// FootprintSVG renders a footprint with its frequency decomposition as
// SVG (the paper's Figure 2(a) style).
func FootprintSVG(w io.Writer, f Footprint, widthPx, heightPx int) error {
	return viz.FootprintSVG(w, f, widthPx, heightPx)
}

// TrajectorySVG renders a trajectory with its extracted RoIs as SVG
// (Figure 1(a) style).
func TrajectorySVG(w io.Writer, t Trajectory, rois []Rect, widthPx, heightPx int) error {
	return viz.TrajectorySVG(w, t, rois, widthPx, heightPx)
}

// ClustersSVG renders per-cluster characteristic regions as SVG
// (Figure 3(b) style).
func ClustersSVG(w io.Writer, regions [][]Rect, widthPx, heightPx int) error {
	return viz.ClustersSVG(w, regions, widthPx, heightPx)
}

// HeatmapSVG renders the aggregate dwell density of a footprint
// collection as SVG.
func HeatmapSVG(w io.Writer, fps []Footprint, gridN, widthPx, heightPx int) error {
	return viz.HeatmapSVG(w, fps, gridN, widthPx, heightPx)
}

// ClipFootprint restricts a footprint to a window, enabling
// area-scoped similarity (e.g. within one department).
func ClipFootprint(f Footprint, window Rect) Footprint { return f.Clip(window) }

// Explanation decomposes one similarity score into per-region-pair
// contributions ("why was this user recommended").
type Explanation = search.Explanation

// Contribution is one overlapping region pair of an Explanation.
type Contribution = search.Contribution

// ExplainSimilarity returns the per-pair breakdown of
// sim(user, query), best contributors first, truncated to maxPairs
// (0 = all).
func ExplainSimilarity(user, query Footprint, userNorm, queryNorm float64, maxPairs int) Explanation {
	return search.Explain(user, query, userNorm, queryNorm, maxPairs)
}

// Server wraps a FootprintDB behind an HTTP/JSON API (see
// internal/server for the routes).
type Server = server.Server

// NewServer builds the HTTP service over db.
func NewServer(db *FootprintDB) *Server { return server.New(db) }

// UnitSquare is the world rectangle of normalized datasets.
func UnitSquare() Rect { return geom.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1} }
