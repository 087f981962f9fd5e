// Package bench is the experiment harness: it regenerates every table
// and figure of the paper's evaluation (Section 7) on the synthetic
// ATC-substitute datasets, timing the same operations the paper times.
//
// Each experiment returns structured rows; cmd/geobench formats them
// side by side with the paper's published numbers. Absolute times
// differ from the paper (different hardware, Go instead of C++, and —
// unless scale=1.0 — smaller datasets); the comparisons of interest
// are the relative ones: which method wins and by roughly what factor.
package bench

import (
	"fmt"
	"math/rand"
	"time"

	"geofootprint/internal/core"
	"geofootprint/internal/extract"
	"geofootprint/internal/geom"
	"geofootprint/internal/search"
	"geofootprint/internal/store"
	"geofootprint/internal/synth"
	"geofootprint/internal/traj"
)

// ExtractionConfig returns the paper's extraction parameters: ε=0.02
// (≈2 m in the normalized space) and τ=30 (≈3 s).
func ExtractionConfig() extract.Config {
	return extract.Config{Epsilon: 0.02, Tau: 30}
}

// Workload is one evaluation dataset (a "part") with everything the
// experiments need: raw trajectories, extracted footprints and
// precomputed norms, plus the ground-truth personas of the generator.
type Workload struct {
	Part     string
	Scale    float64
	Dataset  *traj.Dataset
	DB       *store.FootprintDB
	Personas []int

	// Preprocessing timings captured while building (Table 2).
	ExtractSeconds float64
	NormSeconds    float64
}

// NewWorkload generates the given part at the given scale and runs the
// full preprocessing pipeline, recording its timings. workers <= 0
// uses GOMAXPROCS.
func NewWorkload(part string, scale float64, workers int) (*Workload, error) {
	cfg, err := synth.PartConfig(part, scale)
	if err != nil {
		return nil, err
	}
	ds, personas, err := synth.Generate(cfg)
	if err != nil {
		return nil, err
	}
	w := &Workload{Part: part, Scale: scale, Dataset: ds, Personas: personas}

	ecfg := ExtractionConfig()
	start := time.Now()
	rois := extract.ExtractDataset(ds, ecfg, workers)
	w.ExtractSeconds = time.Since(start).Seconds()

	ids := make([]int, len(ds.Users))
	fps := make([]core.Footprint, len(ds.Users))
	for i := range ds.Users {
		ids[i] = ds.Users[i].ID
		fps[i] = core.FromRoIs(rois[i], core.UnitWeight)
	}
	db, err := store.New(ds.Name, ids, fps)
	if err != nil {
		return nil, err
	}
	start = time.Now()
	db.ComputeNorms(workers)
	w.NormSeconds = time.Since(start).Seconds()
	w.DB = db
	return w, nil
}

// sampleUsers draws min(n, db.Len()) distinct user indexes: the query
// (or clustering) sample an experiment takes from its part.
func sampleUsers(db *store.FootprintDB, n int, seed int64) []int {
	if n > db.Len() {
		n = db.Len()
	}
	return rand.New(rand.NewSource(seed)).Perm(db.Len())[:n]
}

// Table1Row reproduces one row of Table 1: dataset statistics after
// footprint extraction.
type Table1Row struct {
	Part       string
	Users      int
	AvgRegions float64
	AvgXExtent float64
	AvgYExtent float64
}

// Table1 computes the dataset statistics of the workload.
func Table1(w *Workload) Table1Row {
	row := Table1Row{Part: w.Part, Users: w.DB.Len()}
	var regions int
	var sx, sy float64
	for u := range w.DB.IDs {
		f := w.DB.Row(u)
		regions += len(f)
		for _, r := range f {
			sx += r.Rect.Width()
			sy += r.Rect.Height()
		}
	}
	if w.DB.Len() > 0 {
		row.AvgRegions = float64(regions) / float64(w.DB.Len())
	}
	if regions > 0 {
		row.AvgXExtent = sx / float64(regions)
		row.AvgYExtent = sy / float64(regions)
	}
	return row
}

// Table2Row reproduces one column of Table 2: preprocessing times.
type Table2Row struct {
	Part             string
	ExtractSeconds   float64
	NormSeconds      float64
	FootprintsPerSec float64
}

// Table2 reports the preprocessing timings captured by NewWorkload.
func Table2(w *Workload) Table2Row {
	r := Table2Row{Part: w.Part, ExtractSeconds: w.ExtractSeconds, NormSeconds: w.NormSeconds}
	if w.ExtractSeconds > 0 {
		r.FootprintsPerSec = float64(w.DB.Len()) / w.ExtractSeconds
	}
	return r
}

// Table3Row reproduces one column of Table 3: average similarity
// computation cost in microseconds, Algorithm 3 vs Algorithm 4.
type Table3Row struct {
	Part        string  `json:"part"`
	Queries     int     `json:"queries"`
	Pairs       int     `json:"pairs"`
	Alg3Micros  float64 `json:"alg3_micros"`
	Alg4Micros  float64 `json:"alg4_micros"`
	SpeedupAlg4 float64 `json:"speedup_alg4"`
}

// Table3 picks `queries` random user footprints and computes their
// similarity to every user in the part with Algorithm 3 and with
// Algorithm 4 (norms precomputed, as in the paper), reporting average
// per-computation cost.
func Table3(w *Workload, queries int, seed int64) Table3Row {
	db := w.DB
	n := db.Len()
	qIdx := sampleUsers(db, queries, seed)
	queries = len(qIdx)
	row := Table3Row{Part: w.Part, Queries: queries, Pairs: queries * n}

	var sink float64
	start := time.Now()
	for _, qi := range qIdx {
		q, qn := db.Row(qi), db.Norm(qi)
		for j := 0; j < n; j++ {
			sink += core.SimilaritySweep(q, db.Row(j), qn, db.Norm(j))
		}
	}
	row.Alg3Micros = time.Since(start).Seconds() * 1e6 / float64(row.Pairs)

	start = time.Now()
	for _, qi := range qIdx {
		q, qn := db.Row(qi), db.Norm(qi)
		for j := 0; j < n; j++ {
			sink += core.SimilarityJoin(q, db.Row(j), qn, db.Norm(j))
		}
	}
	row.Alg4Micros = time.Since(start).Seconds() * 1e6 / float64(row.Pairs)
	if row.Alg4Micros > 0 {
		row.SpeedupAlg4 = row.Alg3Micros / row.Alg4Micros
	}
	_ = sink
	return row
}

// Table4Row reproduces one column of Table 4: index construction time
// for the RoI R-tree vs the user-centric R-tree.
type Table4Row struct {
	Part              string
	RoITreeSeconds    float64
	UserTreeSeconds   float64
	RoIEntries        int
	UserEntries       int
	RoITreeSTRSeconds float64 // ablation: bulk-loaded build
}

// Table4 times index construction. The paper's build path is
// insertion; the STR bulk load is reported as an ablation column.
func Table4(w *Workload) Table4Row {
	row := Table4Row{Part: w.Part}

	start := time.Now()
	roi := search.NewRoIIndex(w.DB, search.BuildInsert, 0)
	row.RoITreeSeconds = time.Since(start).Seconds()
	row.RoIEntries = roi.Tree().Len()

	start = time.Now()
	uc := search.NewUserCentricIndex(w.DB, search.BuildInsert, 0)
	row.UserTreeSeconds = time.Since(start).Seconds()
	row.UserEntries = uc.Tree().Len()

	start = time.Now()
	search.NewRoIIndex(w.DB, search.BuildSTR, 0)
	row.RoITreeSTRSeconds = time.Since(start).Seconds()
	return row
}

// Fig3aRow reproduces one group of Figure 3(a): total runtime of
// top-K similarity queries under the three search methods.
type Fig3aRow struct {
	Part               string  `json:"part"`
	Queries            int     `json:"queries"`
	K                  int     `json:"k"`
	IterativeSeconds   float64 `json:"iterative_seconds"`
	BatchSeconds       float64 `json:"batch_seconds"`
	UserCentricSeconds float64 `json:"user_centric_seconds"`
}

// Fig3a runs `queries` random top-K queries (query users sampled from
// the data, as in the paper) against each of the three methods of
// Section 6 and reports total wall time per method.
func Fig3a(w *Workload, queries, k int, seed int64) Fig3aRow {
	db := w.DB
	qIdx := sampleUsers(db, queries, seed)
	queries = len(qIdx)
	row := Fig3aRow{Part: w.Part, Queries: queries, K: k}

	// Insertion-built trees, matching the paper's indexing path
	// (Table 4 times insertion); STR-packed trees have near-perfect
	// leaves, which flatters the iterative method beyond what the
	// paper's setting shows.
	roi := search.NewRoIIndex(db, search.BuildInsert, 0)
	uc := search.NewUserCentricIndex(db, search.BuildInsert, 0)

	start := time.Now()
	for _, qi := range qIdx {
		roi.TopKIterative(db.Row(qi), k)
	}
	row.IterativeSeconds = time.Since(start).Seconds()

	start = time.Now()
	for _, qi := range qIdx {
		roi.TopKBatch(db.Row(qi), k)
	}
	row.BatchSeconds = time.Since(start).Seconds()

	start = time.Now()
	for _, qi := range qIdx {
		uc.TopK(db.Row(qi), k)
	}
	row.UserCentricSeconds = time.Since(start).Seconds()
	return row
}

// MBRSensitivityRow is the ablation the paper mentions in prose: for
// queries with very large MBRs the user-centric index degrades because
// it refines many users whose RoIs do not actually overlap the query.
type MBRSensitivityRow struct {
	Spread             float64 // query footprint spread (MBR side length)
	BatchMicros        float64
	UserCentricMicros  float64
	CandidatesRefined  float64 // avg users refined by the user-centric index
	CandidatesRelevant float64 // avg users with non-zero similarity
}

// MBRSensitivity queries synthetic footprints of increasing spatial
// spread against the part's indexes and reports per-query cost of
// batch vs user-centric search.
func MBRSensitivity(w *Workload, spreads []float64, queries, k int, seed int64) []MBRSensitivityRow {
	rng := rand.New(rand.NewSource(seed))
	db := w.DB
	roi := search.NewRoIIndex(db, search.BuildSTR, 0)
	uc := search.NewUserCentricIndex(db, search.BuildSTR, 0)

	rows := make([]MBRSensitivityRow, 0, len(spreads))
	for _, spread := range spreads {
		// Build query footprints: a handful of paper-sized RoIs
		// scattered over a spread×spread area.
		qs := make([]core.Footprint, queries)
		for i := range qs {
			cx := rng.Float64() * (1 - spread)
			cy := rng.Float64() * (1 - spread)
			f := make(core.Footprint, 8)
			for j := range f {
				x := cx + rng.Float64()*spread
				y := cy + rng.Float64()*spread
				f[j] = core.Region{
					Rect:   geom.Rect{MinX: x, MinY: y, MaxX: x + 0.02, MaxY: y + 0.017},
					Weight: 1,
				}
			}
			// Sort once at construction: unsorted queries would push
			// every downstream SimilarityJoin onto its copy+sort
			// fallback — once per candidate, per query.
			core.SortByMinX(f)
			qs[i] = f
		}
		row := MBRSensitivityRow{Spread: spread}

		start := time.Now()
		for _, q := range qs {
			roi.TopKBatch(q, k)
		}
		row.BatchMicros = time.Since(start).Seconds() * 1e6 / float64(queries)

		start = time.Now()
		for _, q := range qs {
			uc.TopK(q, k)
		}
		row.UserCentricMicros = time.Since(start).Seconds() * 1e6 / float64(queries)

		// Candidate statistics.
		var refined, relevant int
		for _, q := range qs {
			qmbr := q.MBR()
			for u := 0; u < db.Len(); u++ {
				if m := db.MBR(u); m.Intersects(qmbr) && !m.IsEmpty() {
					refined++
					if core.SimilarityJoin(db.Row(u), q, db.Norm(u), core.Norm(q)) > 0 {
						relevant++
					}
				}
			}
		}
		row.CandidatesRefined = float64(refined) / float64(queries)
		row.CandidatesRelevant = float64(relevant) / float64(queries)
		rows = append(rows, row)
	}
	return rows
}

// KSensitivityRow verifies the paper's parenthetical claim that query
// time "is not affected by K": total runtime of the user-centric
// search at one K.
type KSensitivityRow struct {
	K       int
	Seconds float64
}

// KSensitivity re-times the Figure 3(a) user-centric measurement for
// several K values on the same query set.
func KSensitivity(w *Workload, ks []int, queries int, seed int64) []KSensitivityRow {
	db := w.DB
	qIdx := sampleUsers(db, queries, seed)
	queries = len(qIdx)
	uc := search.NewUserCentricIndex(db, search.BuildSTR, 0)
	rows := make([]KSensitivityRow, 0, len(ks))
	for _, k := range ks {
		start := time.Now()
		for _, qi := range qIdx {
			uc.TopK(db.Row(qi), k)
		}
		rows = append(rows, KSensitivityRow{K: k, Seconds: time.Since(start).Seconds()})
	}
	return rows
}

// ScaleSweepRow is one point of the search-method scale sweep: the
// Figure 3(a) measurement repeated at growing dataset sizes, showing
// where batch search overtakes iterative search.
type ScaleSweepRow struct {
	Scale              float64
	Users              int
	IterativeSeconds   float64
	BatchSeconds       float64
	UserCentricSeconds float64
}

// ScaleSweep regenerates the part at each scale and repeats the
// Figure 3(a) measurement. Expensive: each scale pays a full
// generation + extraction pass.
func ScaleSweep(part string, scales []float64, queries, k, workers int, seed int64) ([]ScaleSweepRow, error) {
	rows := make([]ScaleSweepRow, 0, len(scales))
	for _, sc := range scales {
		w, err := NewWorkload(part, sc, workers)
		if err != nil {
			return nil, err
		}
		f := Fig3a(w, queries, k, seed)
		rows = append(rows, ScaleSweepRow{
			Scale:              sc,
			Users:              w.DB.Len(),
			IterativeSeconds:   f.IterativeSeconds,
			BatchSeconds:       f.BatchSeconds,
			UserCentricSeconds: f.UserCentricSeconds,
		})
	}
	return rows, nil
}

// GridRow compares the RoI R-tree against the uniform-grid index on
// the same iterative top-k semantics — the "is the R-tree needed?"
// ablation.
type GridRow struct {
	Queries         int
	GridN           int
	RTreeMicros     float64
	GridMicros      float64
	GridReplication float64 // avg grid cells per entry
}

// GridComparison times top-k queries against both index substrates.
func GridComparison(w *Workload, queries, k, gridN int, seed int64) (GridRow, error) {
	db := w.DB
	rt := search.NewRoIIndex(db, search.BuildSTR, 0)
	gr, err := search.NewGridIndex(db, geom.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}, gridN)
	if err != nil {
		return GridRow{}, err
	}
	qs := sampleUsers(db, queries, seed)
	queries = len(qs)
	row := GridRow{Queries: queries, GridN: gridN, GridReplication: gr.Grid().Stats().Replication}

	start := time.Now()
	for _, q := range qs {
		rt.TopKIterative(db.Row(q), k)
	}
	row.RTreeMicros = time.Since(start).Seconds() * 1e6 / float64(queries)

	start = time.Now()
	for _, q := range qs {
		gr.TopK(db.Row(q), k)
	}
	row.GridMicros = time.Since(start).Seconds() * 1e6 / float64(queries)
	return row, nil
}

// Tuning runs the extraction-parameter sweep of the paper's tuning
// procedure on the workload's raw trajectories.
func Tuning(w *Workload, epsilons []float64, taus []int) []extract.ParamStats {
	return extract.SweepParams(w.Dataset, epsilons, taus, extract.DiameterL2, 0)
}

// FormatSeconds renders a duration in seconds with sensible precision.
func FormatSeconds(s float64) string {
	switch {
	case s >= 100:
		return fmt.Sprintf("%.0f", s)
	case s >= 1:
		return fmt.Sprintf("%.2f", s)
	default:
		return fmt.Sprintf("%.4f", s)
	}
}
