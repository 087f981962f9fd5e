// Command benchmark is the repository's one performance ledger. It
// measures the program from outside: end to end against child
// processes built from cmd/geoserve and cmd/georouter over loopback
// HTTP, and layer by layer by timing calls into each package's public
// functions from this process. See README.md in this directory.
//
// One run, as the driver invokes it through run.sh:
//
//	benchmark --workload topk_miss --seed 1 --seconds 20 --trace 0
//
// prints, as the last line of standard output, one JSON object with the
// keys correct, attempted, failed and metrics. Without -workload every
// workload runs untraced and traced and -out receives report.json and
// one trace-<workload>.json per traced run; -repeat N runs N untraced
// sets and prints each metric's spread against its bound in
// BENCHMARK.json.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"geofootprint/internal/search"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the driver's contract: the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// logw receives progress and diagnostics; standard output carries
// result lines only.
var logw io.Writer = os.Stderr

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run() error {
	name := flag.String("workload", "", "run only this workload and print its result line (default: all four, untraced then traced)")
	seed := flag.Int64("seed", 1, "seed of every generated input")
	secs := flag.Float64("seconds", 0, "length of the measured phases of one run (default: run_seconds of BENCHMARK.json)")
	trace := flag.Int("trace", 0, "0: end-to-end metrics with tracing off; 1: the traced run that yields the per-layer metrics")
	out := flag.String("out", "", "directory for report.json and, from a traced run, trace-<workload>.json")
	repeat := flag.Int("repeat", 0, "run this many untraced sets (seeds seed, seed+1, ...) and print the spread of every metric against its bound")
	smoke := flag.Bool("smoke", false, "tiny corpus and short verification, for tests")
	flag.Parse()
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", flag.Arg(0))
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", *trace)
	}
	// Two load-generating clients next to the servers need two cores; a
	// one-core report would measure the scheduler.
	if runtime.NumCPU() < 2 {
		return fmt.Errorf("refusing to measure on %d CPU: the ledger needs at least 2", runtime.NumCPU())
	}
	// run.sh starts the benchmark in the root of the checkout it measures.
	decl, err := loadDeclaration("BENCHMARK.json")
	if err != nil {
		return err
	}
	if *secs == 0 {
		*secs = float64(decl.RunSeconds)
	}
	if *secs <= 0 {
		return fmt.Errorf("-seconds must be positive, got %g", *secs)
	}

	e, cleanup, err := newEnv(".", ".bench_build", *smoke)
	if err != nil {
		return err
	}
	defer cleanup()
	e.notes = *out != "" || (*name == "" && *repeat == 0)
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		e.abort()
	}()
	ctx := context.Background()

	switch {
	case *repeat > 0:
		return e.repeatSets(ctx, decl, *repeat, *seed, *secs)
	case *name != "":
		w, ok := findWorkload(*name)
		if !ok {
			return fmt.Errorf("unknown workload %q", *name)
		}
		rep, spans, err := e.runOne(ctx, w, *seed, *secs, *trace == 1)
		if err != nil {
			return err
		}
		if err := writeOut(*out, []*runReport{rep}, map[string][]span{w.name: spans}); err != nil {
			return err
		}
		return printResult(rep.Result)
	default:
		var reps []*runReport
		traces := make(map[string][]span)
		for _, traced := range []bool{false, true} {
			for _, w := range workloads {
				rep, spans, err := e.runOne(ctx, w, *seed, *secs, traced)
				if err != nil {
					return err
				}
				reps = append(reps, rep)
				traces[w.name] = spans
			}
		}
		if err := writeOut(*out, reps, traces); err != nil {
			return err
		}
		printTable(os.Stdout, decl, reps)
		return nil
	}
}

// newEnv builds the servers of the checkout at root and loads (or
// builds) the corpus. Everything it writes goes under build.
func newEnv(root, build string, smoke bool) (*env, func(), error) {
	e := &env{
		bin:   filepath.Join(build, "bin"),
		smoke: smoke,
		admin: &http.Client{Timeout: 10 * time.Second},
		rigs:  make(map[*rig]bool),
	}
	start := time.Now()
	if err := buildServers(root, e.bin); err != nil {
		return nil, nil, err
	}
	var err error
	if e.corpus, err = loadCorpus(filepath.Join(build, "corpus"), smoke); err != nil {
		return nil, nil, fmt.Errorf("corpus: %w", err)
	}
	e.oracle = search.NewLinearScan(e.corpus.db)
	if e.work, err = os.MkdirTemp(build, "run-"); err != nil {
		return nil, nil, err
	}
	fmt.Fprintf(logw, "built servers and loaded %d users / %d regions in %.1fs\n",
		e.corpus.db.Len(), e.corpus.db.NumRegions(), time.Since(start).Seconds())
	return e, func() { os.RemoveAll(e.work) }, nil
}

// runOne is one run of one workload, traced or not. A run that fails
// to set up, or whose answers are wrong, is an error: it prints no
// metrics.
func (e *env) runOne(ctx context.Context, w workload, seed int64, secs float64, traced bool) (*runReport, []span, error) {
	start := time.Now()
	var rep *runReport
	var spans []span
	var err error
	if traced {
		rep, spans, err = e.runTraced(ctx, w, seed, secs)
	} else {
		rep, err = e.runUntraced(ctx, w, seed, secs)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", w.name, err)
	}
	fmt.Fprintf(logw, "%s seed=%d trace=%v: %d attempted, %d failed, %.1fs\n",
		w.name, seed, traced, rep.Result.Attempted, rep.Result.Failed, time.Since(start).Seconds())
	return rep, spans, nil
}

func printResult(r result) error {
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(b))
	return err
}

// report is the content of report.json.
type report struct {
	Environment environment  `json:"environment"`
	Runs        []*runReport `json:"runs"`
}

// environment stamps a report with where it was measured.
type environment struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
}

func stamp() environment {
	return environment{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
	}
}

// writeOut writes report.json and, for each workload with spans, its
// trace-<workload>.json into dir; an empty dir writes nothing. Trace
// and span ids are unique within one traced run, hence one file each.
func writeOut(dir string, reps []*runReport, traces map[string][]span) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := writeJSON(filepath.Join(dir, "report.json"), report{Environment: stamp(), Runs: reps}); err != nil {
		return err
	}
	for name, spans := range traces {
		if len(spans) == 0 {
			continue
		}
		if err := writeJSON(filepath.Join(dir, "trace-"+name+".json"), spans); err != nil {
			return err
		}
	}
	return nil
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
