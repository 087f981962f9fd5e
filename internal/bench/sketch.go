package bench

import (
	"reflect"
	"time"

	"geofootprint/internal/search"
)

// SketchRow is one resolution point of the sketch filter-and-refine
// sweep: the Figure 3(a) query workload executed through TopKSketch at
// grid resolution G, with the filter effectiveness that explains the
// wall-clock.
type SketchRow struct {
	Part string `json:"part"`
	G    int    `json:"g"`

	// BuildSeconds is the one-off EnableSketches cost at this G.
	BuildSeconds float64 `json:"build_seconds"`
	// SketchSeconds is total query wall-clock through TopKSketch.
	SketchSeconds float64 `json:"sketch_seconds"`

	// Per-query averages over the workload.
	AvgCandidates float64 `json:"avg_candidates"`
	AvgScored     float64 `json:"avg_scored"`
	AvgRefined    float64 `json:"avg_refined"`
	// RefinementRate = AvgRefined / AvgCandidates: the fraction of the
	// unpruned user-centric candidate set that still pays for an
	// Algorithm 4 join. Lower is better; 1.0 would mean the sketch
	// filters nothing.
	RefinementRate float64 `json:"refinement_rate"`

	// Identical reports whether every TopKSketch result list matched
	// LinearScan.TopK byte for byte — the exactness contract.
	Identical bool `json:"identical_results"`
}

// SketchReport is the full sweep for one part: baselines measured once
// on the same query set, then one row per resolution.
type SketchReport struct {
	Part    string `json:"part"`
	Queries int    `json:"queries"`
	K       int    `json:"k"`

	LinearSeconds      float64 `json:"linear_seconds"`
	UserCentricSeconds float64 `json:"user_centric_seconds"`

	Rows []SketchRow `json:"rows"`
}

// SketchSweep times the sketch search at each resolution in gs against
// the linear and user-centric baselines (timed before the layer is
// enabled, so user-centric joins every candidate), verifying exactness
// against the linear scan at every G. The workload matches
// Fig3a: query users sampled from the data.
func SketchSweep(w *Workload, gs []int, queries, k, workers int, seed int64) SketchReport {
	db := w.DB
	qIdx := sampleUsers(db, queries, seed)
	queries = len(qIdx)
	rep := SketchReport{Part: w.Part, Queries: queries, K: k}

	lin := search.NewLinearScan(db)
	uc := search.NewUserCentricIndex(db, search.BuildSTR, 0)

	// The exactness oracle, computed once per query.
	want := make([][]search.Result, queries)
	start := time.Now()
	for i, qi := range qIdx {
		want[i] = lin.TopK(db.Row(qi), k)
	}
	rep.LinearSeconds = time.Since(start).Seconds()

	start = time.Now()
	for _, qi := range qIdx {
		uc.TopK(db.Row(qi), k)
	}
	rep.UserCentricSeconds = time.Since(start).Seconds()

	for _, g := range gs {
		row := SketchRow{Part: w.Part, G: g, Identical: true}

		start = time.Now()
		db.EnableSketches(g, workers)
		row.BuildSeconds = time.Since(start).Seconds()

		var cand, scored, refined int
		start = time.Now()
		for i, qi := range qIdx {
			res, st := uc.TopKSketchStats(db.Row(qi), k)
			cand += st.Candidates
			scored += st.Scored
			refined += st.Refined
			if !reflect.DeepEqual(res, want[i]) {
				row.Identical = false
			}
		}
		row.SketchSeconds = time.Since(start).Seconds()

		q := float64(queries)
		row.AvgCandidates = float64(cand) / q
		row.AvgScored = float64(scored) / q
		row.AvgRefined = float64(refined) / q
		if cand > 0 {
			row.RefinementRate = float64(refined) / float64(cand)
		}
		rep.Rows = append(rep.Rows, row)
	}
	db.DisableSketches()
	return rep
}
