package bench

import (
	"time"

	"geofootprint/internal/core"
	"geofootprint/internal/extract"
	"geofootprint/internal/search"
	"geofootprint/internal/store"
)

// WeightedResult quantifies how much the Section 8 duration weights
// change similarity rankings relative to the base (unit-frequency)
// model, and what the weights cost.
type WeightedResult struct {
	Queries int
	K       int
	// MeanJaccard is the average Jaccard overlap of the top-k ID
	// sets under the two models.
	MeanJaccard float64
	// Top1Agreement is the fraction of queries whose best match is
	// the same user under both models.
	Top1Agreement float64
	// UnweightedMicros / WeightedMicros are the average top-k query
	// costs: the weights ride along for free in Algorithm 4, so
	// these should be close.
	UnweightedMicros float64
	WeightedMicros   float64
}

// WeightedComparison re-extracts the workload's dataset under duration
// weights and compares top-k rankings between the two models over
// random query users.
func WeightedComparison(w *Workload, queries, k int, seed int64) (WeightedResult, error) {
	res := WeightedResult{K: k}
	// Duration-weighted database over the same RoIs.
	rois := extract.ExtractDataset(w.Dataset, ExtractionConfig(), 0)
	wfps := make([]core.Footprint, len(rois))
	for i, rs := range rois {
		wfps[i] = core.FromRoIs(rs, core.DurationWeight)
	}
	wdb, err := store.New(w.Dataset.Name+"-weighted", append([]int(nil), w.DB.IDs...), wfps)
	if err != nil {
		return res, err
	}
	wdb.ComputeNorms(0)

	uIdx := search.NewUserCentricIndex(w.DB, search.BuildSTR, 0)
	wIdx := search.NewUserCentricIndex(wdb, search.BuildSTR, 0)

	qs := sampleUsers(w.DB, queries, seed)
	queries = len(qs)
	res.Queries = queries

	var uTime, wTime time.Duration
	var jaccardSum float64
	top1 := 0
	for _, q := range qs {
		// Fetch k+1 and drop the query user itself: the self-match
		// tops both rankings trivially and would inflate agreement.
		self := w.DB.IDs[q]

		start := time.Now()
		ur := uIdx.TopK(w.DB.Row(q), k+1)
		uTime += time.Since(start)

		start = time.Now()
		wr := wIdx.TopK(wdb.Row(q), k+1)
		wTime += time.Since(start)

		ur = dropSelf(ur, self, k)
		wr = dropSelf(wr, self, k)
		jaccardSum += jaccard(ur, wr)
		if len(ur) > 0 && len(wr) > 0 && ur[0].ID == wr[0].ID {
			top1++
		}
	}
	res.MeanJaccard = jaccardSum / float64(queries)
	res.Top1Agreement = float64(top1) / float64(queries)
	res.UnweightedMicros = uTime.Seconds() * 1e6 / float64(queries)
	res.WeightedMicros = wTime.Seconds() * 1e6 / float64(queries)
	return res, nil
}

func dropSelf(rs []search.Result, self, k int) []search.Result {
	out := rs[:0]
	for _, r := range rs {
		if r.ID != self {
			out = append(out, r)
		}
	}
	if len(out) > k {
		out = out[:k]
	}
	return out
}

func jaccard(a, b []search.Result) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	set := make(map[int]bool, len(a))
	for _, r := range a {
		set[r.ID] = true
	}
	inter := 0
	for _, r := range b {
		if set[r.ID] {
			inter++
		}
	}
	union := len(a) + len(b) - inter
	if union == 0 {
		return 1
	}
	return float64(inter) / float64(union)
}
