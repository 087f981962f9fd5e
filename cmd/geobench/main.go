// Command geobench regenerates every table and figure of the paper's
// evaluation (Section 7) on the synthetic ATC-substitute datasets and
// prints them next to the paper's published numbers.
//
// Absolute times are not expected to match the paper (different
// hardware, Go vs g++ -O3, and scaled-down datasets unless
// -scale 1.0); the reproduced quantities are the *relative* results:
// which method wins, by roughly what factor, and where behaviour
// crosses over.
//
// Usage:
//
//	geobench                                   # everything, 5% scale
//	geobench -exp table3 -scale 0.02 -parts A,B
//	geobench -exp fig3b -sample 4000
package main

import (
	"flag"
	"fmt"
	"log"
	"runtime"
	"strings"

	"geofootprint/internal/bench"
)

// Paper-published values, for side-by-side reporting.
var (
	paperTable1 = map[string]bench.Table1Row{
		"A": {Part: "A", Users: 278000, AvgRegions: 16, AvgXExtent: 0.020145, AvgYExtent: 0.017232},
		"B": {Part: "B", Users: 236000, AvgRegions: 18, AvgXExtent: 0.019387, AvgYExtent: 0.016651},
		"C": {Part: "C", Users: 317000, AvgRegions: 20, AvgXExtent: 0.019247, AvgYExtent: 0.016606},
		"D": {Part: "D", Users: 377000, AvgRegions: 17, AvgXExtent: 0.025416, AvgYExtent: 0.022551},
	}
	paperTable2Extract = map[string]float64{"A": 60.09, "B": 56.9, "C": 82.15, "D": 90.33}
	paperTable2Norm    = map[string]float64{"A": 6.91, "B": 7.84, "C": 7.97, "D": 11.98}
	paperTable3Alg3    = map[string]float64{"A": 46.24, "B": 59.5, "C": 52.7, "D": 16.39}
	paperTable3Alg4    = map[string]float64{"A": 1.08, "B": 1.28, "C": 1.46, "D": 0.53}
	paperTable4RoI     = map[string]float64{"A": 3.54, "B": 3.68, "C": 5.64, "D": 5.57}
	paperTable4User    = map[string]float64{"A": 0.25, "B": 0.22, "C": 0.31, "D": 0.35}
)

var (
	exp          = flag.String("exp", "all", "experiment: "+experimentNames()+" or all")
	scale        = flag.Float64("scale", 0.05, "fraction of the paper's user counts (1.0 = full size)")
	partsFlag    = flag.String("parts", "A,B,C,D", "comma-separated parts to run")
	queries      = flag.Int("queries", 50, "query users for table3 (paper: 200)")
	fig3aQueries = flag.Int("fig3a-queries", 200, "queries for fig3a (paper: 1000)")
	k            = flag.Int("k", 5, "K for top-K search experiments")
	sample       = flag.Int("sample", 1500, "user sample for fig3b clustering (paper: 4000)")
	clusters     = flag.Int("clusters", 9, "clusters for fig3b (paper: 9)")
	workers      = flag.Int("workers", 0, "parallel workers for preprocessing (0 = all CPUs)")
	seed         = flag.Int64("seed", 7, "random seed for query sampling")
	parallel     = flag.Bool("parallel", false,
		"also run the fig3a workload through the parallel query engine (serial vs parallel, identical results verified)")
	jsonDir = flag.String("json", ".",
		"directory for machine-readable BENCH_<exp>.json reports (empty = disabled)")

	parts     []string
	workloads = make(map[string]*bench.Workload)
)

// experiments is the one list of what geobench can run, in print
// order: -exp's help, the unknown-name error and the selection in main
// all read it. inAll marks the ones `-exp all` runs (the rest
// re-extract, spin servers or sweep scales, so they run only by name).
var experiments = []struct {
	name  string
	inAll bool
	fn    func()
}{
	{"table1", true, table1},
	{"table2", true, table2},
	{"table3", true, table3},
	{"table4", true, table4},
	{"fig3a", true, fig3a},
	{"sketch", true, sketch},
	{"fig3b", true, fig3b},
	{"k-sensitivity", false, kSensitivity},
	{"scale-sweep", false, scaleSweep},
	{"failover", false, failover},
	{"cluster-methods", false, clusterMethods},
	{"grid", false, grid},
	{"weighted", false, weighted},
	{"tuning", false, tuning},
	{"mbr-sensitivity", true, mbrSensitivity},
}

// retired names the serving experiments the ledger replaced and the
// workload that now measures each on real geoserve/georouter processes
// (restart's load times are setup_s and the traced colstore.load_*_ms).
var retired = map[string]string{
	"qps":     "topk_hot",
	"scatter": "cluster_r2",
	"ingest":  "ingest_mixed",
	"restart": "topk_miss",
}

func experimentNames() string {
	names := make([]string, len(experiments))
	for i, e := range experiments {
		names[i] = e.name
	}
	return strings.Join(names, ", ")
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("geobench: ")

	flag.Parse()

	var selected []func()
	for _, e := range experiments {
		if *exp == e.name || (*exp == "all" && e.inAll) {
			selected = append(selected, e.fn)
		}
	}
	if len(selected) == 0 {
		if w, ok := retired[*exp]; ok {
			log.Fatalf("-exp %s was retired (last table: EXPERIMENTS.md); the ledger measures it on real servers: bash benchmark/run.sh --workload %s", *exp, w)
		}
		log.Fatalf("unknown experiment %q; valid: %s or all", *exp, experimentNames())
	}

	parts = strings.Split(*partsFlag, ",")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}

	if runtime.GOMAXPROCS(0) == 1 {
		log.Print("WARNING: GOMAXPROCS=1 — parallel speedups are not meaningful; the JSON reports carry this warning")
	}

	fmt.Printf("geobench: scale=%.3g parts=%s (paper hardware: i9-10900K, g++ -O3; absolute times differ)\n\n",
		*scale, strings.Join(parts, ","))

	for _, fn := range selected {
		fn()
	}
}

// emit writes the machine-readable companion of a text table.
func emit(name string, rows interface{}) {
	if *jsonDir == "" {
		return
	}
	path, err := bench.WriteReport(*jsonDir, bench.Report{
		Experiment: name, Scale: *scale, Workers: *workers,
		Parallel: *parallel, Rows: rows,
	})
	if err != nil {
		log.Fatalf("writing %s report: %v", name, err)
	}
	fmt.Printf("(wrote %s)\n\n", path)
}

// get builds a part's workload on first use (fig3b only needs Part A).
func get(part string) *bench.Workload {
	if w, ok := workloads[part]; ok {
		return w
	}
	w, err := bench.NewWorkload(part, *scale, *workers)
	if err != nil {
		log.Fatal(err)
	}
	workloads[part] = w
	return w
}

func table1() {
	fmt.Println("== Table 1: statistics of data and extracted RoIs ==")
	fmt.Printf("%-5s %12s %12s %12s %12s   (paper: users/avgReg/x/y)\n",
		"part", "users", "avg#regions", "x-extent", "y-extent")
	for _, p := range parts {
		r := bench.Table1(get(p))
		pp := paperTable1[p]
		fmt.Printf("%-5s %12d %12.1f %12.6f %12.6f   (%dK / %.0f / %.6f / %.6f)\n",
			r.Part, r.Users, r.AvgRegions, r.AvgXExtent, r.AvgYExtent,
			pp.Users/1000, pp.AvgRegions, pp.AvgXExtent, pp.AvgYExtent)
	}
	fmt.Println()
}

func table2() {
	fmt.Println("== Table 2: footprint extraction & norm computation time ==")
	fmt.Printf("%-5s %14s %14s %16s   (paper: extract/norm at full size)\n",
		"part", "extract (s)", "norms (s)", "footprints/s")
	for _, p := range parts {
		r := bench.Table2(get(p))
		fmt.Printf("%-5s %14s %14s %16.0f   (%.2fs / %.2fs)\n",
			r.Part, bench.FormatSeconds(r.ExtractSeconds), bench.FormatSeconds(r.NormSeconds),
			r.FootprintsPerSec, paperTable2Extract[p], paperTable2Norm[p])
	}
	fmt.Println()
}

func table3() {
	fmt.Println("== Table 3: avg similarity computation cost (µs) ==")
	fmt.Printf("%-5s %12s %12s %10s   (paper: alg3/alg4 µs)\n",
		"part", "Alg3 (µs)", "Alg4 (µs)", "speedup")
	var rows []bench.Table3Row
	for _, p := range parts {
		r := bench.Table3(get(p), *queries, *seed)
		rows = append(rows, r)
		fmt.Printf("%-5s %12.2f %12.2f %9.1fx   (%.2f / %.2f)\n",
			r.Part, r.Alg3Micros, r.Alg4Micros, r.SpeedupAlg4,
			paperTable3Alg3[p], paperTable3Alg4[p])
	}
	fmt.Println()
	emit("table3", rows)
}

func table4() {
	fmt.Println("== Table 4: indexing time for R-tree methods ==")
	fmt.Printf("%-5s %14s %14s %14s   (paper: RoI/user-centric s)\n",
		"part", "RoI tree (s)", "user tree (s)", "RoI STR (s)")
	for _, p := range parts {
		r := bench.Table4(get(p))
		fmt.Printf("%-5s %14s %14s %14s   (%.2f / %.2f)\n",
			r.Part, bench.FormatSeconds(r.RoITreeSeconds),
			bench.FormatSeconds(r.UserTreeSeconds),
			bench.FormatSeconds(r.RoITreeSTRSeconds),
			paperTable4RoI[p], paperTable4User[p])
	}
	fmt.Println()
}

func fig3a() {
	fmt.Printf("== Figure 3(a): total runtime of %d top-%d queries (s) ==\n", *fig3aQueries, *k)
	fmt.Printf("%-5s %14s %14s %14s   (paper shape: user-centric < batch < iterative)\n",
		"part", "iterative", "batch", "user-centric")
	var rows []bench.Fig3aRow
	for _, p := range parts {
		r := bench.Fig3a(get(p), *fig3aQueries, *k, *seed)
		rows = append(rows, r)
		fmt.Printf("%-5s %14s %14s %14s\n",
			r.Part, bench.FormatSeconds(r.IterativeSeconds),
			bench.FormatSeconds(r.BatchSeconds),
			bench.FormatSeconds(r.UserCentricSeconds))
	}
	fmt.Println()
	if *parallel {
		fmt.Printf("== Figure 3(a) parallel: serial vs query-engine batch (s) ==\n")
		fmt.Printf("%-5s %22s %22s %22s %10s %10s\n",
			"part", "iterative ser/par", "batch ser/par", "user-centric ser/par", "speedup", "identical")
		var prows []bench.Fig3aParallelRow
		for _, p := range parts {
			r := bench.Fig3aParallel(get(p), *fig3aQueries, *k, *workers, *seed)
			prows = append(prows, r)
			fmt.Printf("%-5s %10s/%10s %10s/%10s %10s/%10s %9.2fx %10v\n",
				r.Part,
				bench.FormatSeconds(r.SerialIterativeSeconds), bench.FormatSeconds(r.ParallelIterativeSeconds),
				bench.FormatSeconds(r.SerialBatchSeconds), bench.FormatSeconds(r.ParallelBatchSeconds),
				bench.FormatSeconds(r.SerialUserCentricSeconds), bench.FormatSeconds(r.ParallelUserCentricSeconds),
				r.SpeedupUserCentric(), r.Identical)
			if !r.Identical {
				log.Fatalf("part %s: parallel results diverged from serial", p)
			}
		}
		fmt.Println()
		emit("fig3a", map[string]interface{}{"serial": rows, "parallel": prows})
	} else {
		emit("fig3a", rows)
	}
}

func sketch() {
	fmt.Printf("== Sketch filter-and-refine: resolution sweep, %d top-%d queries ==\n", *fig3aQueries, *k)
	var reps []bench.SketchReport
	for _, p := range parts {
		rep := bench.SketchSweep(get(p), []int{16, 32, 64, 128}, *fig3aQueries, *k, *workers, *seed)
		reps = append(reps, rep)
		fmt.Printf("part %s baselines (s): linear %s, user-centric %s\n",
			rep.Part, bench.FormatSeconds(rep.LinearSeconds),
			bench.FormatSeconds(rep.UserCentricSeconds))
		fmt.Printf("%-6s %12s %12s %12s %12s %12s %10s %10s\n",
			"G", "build (s)", "sketch (s)", "avg cand", "avg scored", "avg refined", "refine%", "identical")
		for _, r := range rep.Rows {
			fmt.Printf("%-6d %12s %12s %12.1f %12.1f %12.1f %9.1f%% %10v\n",
				r.G, bench.FormatSeconds(r.BuildSeconds), bench.FormatSeconds(r.SketchSeconds),
				r.AvgCandidates, r.AvgScored, r.AvgRefined,
				100*r.RefinementRate, r.Identical)
			if !r.Identical {
				log.Fatalf("part %s G=%d: sketch results diverged from linear scan", p, r.G)
			}
		}
		fmt.Println()
	}
	emit("sketch", reps)
}

func fig3b() {
	fmt.Printf("== Figure 3(b): average-link clustering of %d users into %d clusters (Part A) ==\n",
		*sample, *clusters)
	res, err := bench.Fig3b(get("A"), *sample, *clusters, *seed)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("distance matrix %.2fs, clustering %.2fs, persona purity %.3f\n",
		res.MatrixSeconds, res.ClusterSeconds, res.PersonaPurity)
	for c, size := range res.ClusterSizes {
		fmt.Printf("cluster %d: %4d users, %3d characteristic cells\n",
			c+1, size, len(res.Regions[c]))
	}
	fmt.Println("\ncharacteristic-region map (digit = cluster, '.' = shared/unvisited):")
	fmt.Print(res.ASCIIMap)
	fmt.Println()
}

func kSensitivity() {
	fmt.Printf("== K sensitivity: user-centric search, %d queries (paper: \"time is not affected by K\") ==\n",
		*fig3aQueries)
	fmt.Printf("%-6s %12s\n", "K", "total (s)")
	for _, r := range bench.KSensitivity(get(parts[0]), []int{1, 5, 20, 100}, *fig3aQueries, *seed) {
		fmt.Printf("%-6d %12s\n", r.K, bench.FormatSeconds(r.Seconds))
	}
	fmt.Println()
}

func scaleSweep() {
	fmt.Printf("== Scale sweep: Fig. 3(a) methods vs dataset size (%s, %d top-%d queries) ==\n",
		parts[0], *fig3aQueries, *k)
	fmt.Printf("%-8s %10s %14s %14s %14s\n",
		"scale", "users", "iterative (s)", "batch (s)", "user-centric")
	rows, err := bench.ScaleSweep(parts[0], []float64{0.01, 0.05, 0.1, 0.2},
		*fig3aQueries, *k, *workers, *seed)
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range rows {
		fmt.Printf("%-8.2f %10d %14s %14s %14s\n",
			r.Scale, r.Users, bench.FormatSeconds(r.IterativeSeconds),
			bench.FormatSeconds(r.BatchSeconds), bench.FormatSeconds(r.UserCentricSeconds))
	}
	fmt.Println()
}

// failover prices replication: 4 ring-split shards, one killed and
// restarted by deterministic fault injection, at R=1 vs R=2 —
// throughput plus answer quality (complete vs partial, every answer
// verified exact over the corpus it claims to cover). The ledger
// injects no faults, so this one serving experiment stays.
func failover() {
	fmt.Printf("== Failover: router top-%d over 4 shards, shard-1 killed/restarted, R=1 vs R=2 (%d queries) ==\n",
		*k, *fig3aQueries)
	fmt.Printf("%-5s %3s %-10s %12s %12s %9s %9s %11s %6s\n",
		"part", "R", "phase", "queries/s", "mean (µs)", "complete", "partial", "failed-over", "exact")
	var rows []bench.FailoverRow
	for _, p := range parts {
		rs, err := bench.FailoverBench(get(p), *fig3aQueries, *k, 0, *seed)
		if err != nil {
			log.Fatal(err)
		}
		for _, r := range rs {
			fmt.Printf("%-5s %3d %-10s %12.0f %12.1f %9d %9d %11d %6v\n",
				r.Part, r.Replicas, r.Phase, r.QueriesPerSec, r.MeanMicros,
				r.Complete, r.Partials, r.FailedOver, r.Exact)
		}
		rows = append(rows, rs...)
	}
	fmt.Println()
	emit("failover", rows)
}

func clusterMethods() {
	fmt.Printf("== Ablation: clustering methods on the Fig. 3(b) task (%d users, k=%d) ==\n",
		*sample, *clusters)
	rows, err := bench.ClusterMethods(get("A"), *sample, *clusters, *seed)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-15s %10s %10s %12s\n", "method", "time (s)", "purity", "silhouette")
	for _, r := range rows {
		fmt.Printf("%-15s %10.2f %10.3f %12.3f\n", r.Method, r.Seconds, r.Purity, r.Silhouette)
	}
	fmt.Println()
}

func grid() {
	fmt.Println("== Ablation: uniform-grid index vs RoI R-tree (iterative top-k) ==")
	fmt.Printf("%-8s %16s %16s %14s\n", "gridN", "R-tree (µs)", "grid (µs)", "replication")
	for _, gn := range []int{16, 32, 64, 128} {
		row, err := bench.GridComparison(get(parts[0]), 200, *k, gn, *seed)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-8d %16.1f %16.1f %14.2f\n",
			row.GridN, row.RTreeMicros, row.GridMicros, row.GridReplication)
	}
	fmt.Println()
}

func weighted() {
	fmt.Println("== Ablation: duration weights (Sec. 8) vs unit frequencies ==")
	res, err := bench.WeightedComparison(get(parts[0]), 200, *k, *seed)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("queries: %d, k=%d\n", res.Queries, res.K)
	fmt.Printf("top-%d Jaccard overlap:  %.3f\n", res.K, res.MeanJaccard)
	fmt.Printf("top-1 agreement:        %.1f%%\n", 100*res.Top1Agreement)
	fmt.Printf("query cost: %.1f µs unweighted vs %.1f µs weighted\n",
		res.UnweightedMicros, res.WeightedMicros)
	fmt.Println()
}

// tuning re-extracts the dataset 16 times.
func tuning() {
	fmt.Println("== Ablation: extraction-parameter sensitivity (Sec. 7 tuning procedure) ==")
	fmt.Printf("%-8s %-6s %12s %12s %12s %12s %12s\n",
		"eps", "tau", "avg#regions", "x-extent", "y-extent", "covered", "coverage")
	w := get(parts[0])
	epsilons := []float64{0.005, 0.01, 0.02, 0.04}
	taus := []int{10, 30, 60, 120}
	for _, s := range bench.Tuning(w, epsilons, taus) {
		fmt.Printf("%-8.3f %-6d %12.1f %12.5f %12.5f %11.1f%% %11.1f%%\n",
			s.Epsilon, s.Tau, s.AvgRegions, s.AvgXExtent, s.AvgYExtent,
			100*s.CoveredUsers, 100*s.AvgCoverage)
	}
	fmt.Println()
}

func mbrSensitivity() {
	fmt.Println("== Ablation: query-MBR size sensitivity (Sec. 7 prose) ==")
	fmt.Printf("%-8s %14s %18s %12s %12s\n",
		"spread", "batch (µs)", "user-centric (µs)", "refined", "relevant")
	rows := bench.MBRSensitivity(get("A"), []float64{0.05, 0.1, 0.2, 0.4, 0.8}, 50, *k, *seed)
	for _, r := range rows {
		fmt.Printf("%-8.2f %14.1f %18.1f %12.1f %12.1f\n",
			r.Spread, r.BatchMicros, r.UserCentricMicros,
			r.CandidatesRefined, r.CandidatesRelevant)
	}
	fmt.Println()
}
