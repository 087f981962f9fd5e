package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"time"

	"geofootprint/internal/core"
	"geofootprint/internal/engine"
	"geofootprint/internal/search"
)

// Fig3aParallelRow is the Figure 3(a) workload executed twice per
// method: once on the serial Section 6 paths and once through the
// parallel query engine's batched worker pool. Identical reports
// whether every parallel result list matched its serial oracle
// byte for byte.
type Fig3aParallelRow struct {
	Part    string `json:"part"`
	Queries int    `json:"queries"`
	K       int    `json:"k"`
	Workers int    `json:"workers"`

	SerialIterativeSeconds   float64 `json:"serial_iterative_seconds"`
	ParallelIterativeSeconds float64 `json:"parallel_iterative_seconds"`

	SerialBatchSeconds   float64 `json:"serial_batch_seconds"`
	ParallelBatchSeconds float64 `json:"parallel_batch_seconds"`

	SerialUserCentricSeconds   float64 `json:"serial_user_centric_seconds"`
	ParallelUserCentricSeconds float64 `json:"parallel_user_centric_seconds"`

	Identical bool `json:"identical_results"`
}

// SpeedupUserCentric returns the parallel speedup of the headline
// (user-centric) method, 0 when unmeasurable.
func (r Fig3aParallelRow) SpeedupUserCentric() float64 {
	if r.ParallelUserCentricSeconds <= 0 {
		return 0
	}
	return r.SerialUserCentricSeconds / r.ParallelUserCentricSeconds
}

// Fig3aParallel repeats the Figure 3(a) measurement with the query
// engine: the same query set runs serially (the Fig3a paths) and then
// through engine.TopKBatch on `workers` workers, per method, with the
// parallel results verified byte-identical to the serial ones.
func Fig3aParallel(w *Workload, queries, k, workers int, seed int64) Fig3aParallelRow {
	db := w.DB
	qIdx := sampleUsers(db, queries, seed)
	queries = len(qIdx)
	qs := make([]core.Footprint, queries)
	for i, qi := range qIdx {
		qs[i] = db.Row(qi)
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	row := Fig3aParallelRow{Part: w.Part, Queries: queries, K: k, Workers: workers, Identical: true}

	// Insertion-built trees, matching Fig3a; both executions share
	// the same indexes so only the execution strategy differs.
	roi := search.NewRoIIndex(db, search.BuildInsert, 0)
	uc := search.NewUserCentricIndex(db, search.BuildInsert, 0)

	check := func(serial, parallel [][]search.Result) {
		if !reflect.DeepEqual(serial, parallel) {
			row.Identical = false
		}
	}

	run := func(src search.Source, ix func(q core.Footprint) []search.Result) (serialS, parS float64) {
		serial := make([][]search.Result, len(qs))
		start := time.Now()
		for i, q := range qs {
			serial[i] = ix(q)
		}
		serialS = time.Since(start).Seconds()

		e := engine.New(db, src, workers)
		start = time.Now()
		parallel := e.TopKBatch(qs, k)
		parS = time.Since(start).Seconds()
		check(serial, parallel)
		return serialS, parS
	}

	row.SerialIterativeSeconds, row.ParallelIterativeSeconds =
		run(roi.Iterative(), func(q core.Footprint) []search.Result { return roi.TopKIterative(q, k) })
	row.SerialBatchSeconds, row.ParallelBatchSeconds =
		run(roi.Batch(), func(q core.Footprint) []search.Result { return roi.TopKBatch(q, k) })
	row.SerialUserCentricSeconds, row.ParallelUserCentricSeconds =
		run(uc, func(q core.Footprint) []search.Result { return uc.TopK(q, k) })
	return row
}

// Report is the machine-readable envelope geobench writes next to its
// text tables, one BENCH_<experiment>.json per experiment, so the
// repo's performance trajectory can be tracked across commits. The
// environment fields (go_version, num_cpu, gomaxprocs, parallel) make
// a report comparable across machines and settings: a wall-clock
// regression means nothing without them.
type Report struct {
	Experiment string  `json:"experiment"`
	Scale      float64 `json:"scale"`
	Workers    int     `json:"workers"`
	GoVersion  string  `json:"go_version"`
	NumCPU     int     `json:"num_cpu"`
	GoMaxProcs int     `json:"gomaxprocs"`
	Parallel   bool    `json:"parallel"`
	// Warnings flags conditions that make the numbers incomparable to
	// a normal run — a GOMAXPROCS=1 process measuring parallel code,
	// for instance. Readers (and benchdiff users) should treat a
	// report with warnings as suspect.
	Warnings []string    `json:"warnings,omitempty"`
	Rows     interface{} `json:"rows"`
}

// WriteReport writes the report as indented JSON to
// <dir>/BENCH_<experiment>.json and returns the path, stamping the
// runtime environment fields when the caller left them zero.
func WriteReport(dir string, r Report) (string, error) {
	if r.GoVersion == "" {
		r.GoVersion = runtime.Version()
	}
	if r.NumCPU == 0 {
		r.NumCPU = runtime.NumCPU()
	}
	if r.GoMaxProcs == 0 {
		r.GoMaxProcs = runtime.GOMAXPROCS(0)
	}
	if r.GoMaxProcs == 1 {
		r.Warnings = append(r.Warnings,
			"GOMAXPROCS=1: parallel speedups are not meaningful in this report")
	}
	path := fmt.Sprintf("%s/BENCH_%s.json", dir, r.Experiment)
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return "", err
	}
	b = append(b, '\n')
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return "", err
	}
	return path, nil
}
