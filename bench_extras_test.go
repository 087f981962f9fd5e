package geofootprint

// Benchmarks of the extension surfaces built on top of the paper's
// algorithms: the similarity self-join, the kNN graph, and score
// explanations.

import (
	"context"
	"testing"

	"geofootprint/internal/search"
)

func BenchmarkExtrasTopPairs(b *testing.B) {
	w := workload(b)
	ix := search.NewUserCentricIndex(w.DB, search.BuildSTR, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		search.TopSimilarPairs(context.Background(), ix, 20, 0)
	}
}

func BenchmarkExtrasKNNGraph(b *testing.B) {
	w := workload(b)
	ix := search.NewUserCentricIndex(w.DB, search.BuildSTR, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		search.KNNGraph(ix, 5, 0)
	}
}

func BenchmarkExtrasExplain(b *testing.B) {
	w := workload(b)
	db := w.DB
	n := db.Len()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, c := i%n, (i*7+1)%n
		search.Explain(db.Footprints[a], db.Footprints[c], db.Norms[a], db.Norms[c], 5)
	}
}
