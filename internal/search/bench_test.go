package search

// The committed stopwatch for an uncached query (ROADMAP aim 1): what
// each stage of search.TopK costs on the ledger's corpus, with the
// bound step on either side of its choice. EXPERIMENTS.md quotes these.
//
//	go test -run '^$' -bench 'QuerySketch|BoundStep|MissStages|PostingsBuild|WrittenSet' -benchtime 2000x ./internal/search/
//
// The corpus is the ledger's (Part A at scale 0.05: 13 900 users, the
// paper's extraction parameters, G = 64), columnar-backed as geoserve
// loads it, and the queries are topk_miss's: a corpus footprint
// translated by at most 0.002 per axis. Generating it takes a few
// seconds, once per process; internal/bench's helper cannot be used
// here because it imports this package.

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"geofootprint/internal/core"
	"geofootprint/internal/extract"
	"geofootprint/internal/hashring"
	"geofootprint/internal/sketch"
	"geofootprint/internal/store"
	"geofootprint/internal/synth"
	"geofootprint/internal/topk"
)

type benchCorpus struct {
	cols    *store.FootprintDB // the corpus, opened from its columns
	uc      *UserCentricIndex
	queries []core.Footprint
}

var (
	ledgerOnce sync.Once
	ledgerDB   *store.FootprintDB
	corpusOnce sync.Once
	corpus     benchCorpus
)

// ledgerCorpus returns the ledger's corpus with its sketch layer, built
// in memory once per process.
func ledgerCorpus(tb testing.TB) *store.FootprintDB {
	tb.Helper()
	ledgerOnce.Do(func() {
		cfg, err := synth.PartConfig("A", 0.05)
		if err != nil {
			panic(err)
		}
		ds, _, err := synth.Generate(cfg)
		if err != nil {
			panic(err)
		}
		ledgerDB, err = store.Build(ds, extract.Config{Epsilon: 0.02, Tau: 30}, core.UnitWeight, 0)
		if err != nil {
			panic(err)
		}
		ledgerDB.EnableSketches(0, 0)
	})
	return ledgerDB
}

func loadBenchCorpus(b *testing.B) *benchCorpus {
	b.Helper()
	corpusOnce.Do(func() {
		mem := ledgerCorpus(b)
		cols, err := store.FromColumnar(mem.Columnar(nil))
		if err != nil {
			panic(err)
		}
		rng := rand.New(rand.NewSource(101))
		queries := make([]core.Footprint, 512)
		for i := range queries {
			u := rng.Intn(mem.Len())
			for mem.RowLen(u) == 0 {
				u = rng.Intn(mem.Len())
			}
			q := mem.Row(u).Translate((2*rng.Float64()-1)*0.002, (2*rng.Float64()-1)*0.002)
			core.SortByMinX(q)
			queries[i] = q
		}
		corpus = benchCorpus{cols: cols, uc: NewUserCentricIndex(cols, BuildSTR, 0), queries: queries}
	})
	return &corpus
}

func BenchmarkQuerySketch(b *testing.B) {
	c := loadBenchCorpus(b)
	var sink float64
	b.Run("norm", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sink += core.Norm(c.queries[i%len(c.queries)])
		}
	})
	b.Run("disjoint", func(b *testing.B) {
		b.ReportAllocs()
		rects := 0
		for i := 0; i < b.N; i++ {
			rects += len(core.DisjointRegions(c.queries[i%len(c.queries)]))
		}
		b.ReportMetric(float64(rects)/float64(b.N), "rects/op")
	})
	b.Run("build", func(b *testing.B) {
		b.ReportAllocs()
		cells := 0
		for i := 0; i < b.N; i++ {
			cells += len(sketch.Build(c.queries[i%len(c.queries)], c.cols.SketchParams).Cells)
		}
		b.ReportMetric(float64(cells)/float64(b.N), "cells/op")
	})
	_ = sink
}

// benchShard is shard-0 of the ledger's cluster_r2 split (benchmark/
// corpus.go): every user whose two-replica tuple on the four-shard ring
// holds shard-0 — about half the corpus — with its own sketch layer,
// opened from its columns, its R-tree, and lead[u], whether shard-0
// leads user u's tuple: the users its leg (segment members ["shard-0"])
// keeps.
type benchShard struct {
	cols *store.FootprintDB
	uc   *UserCentricIndex
	lead []bool
}

var (
	shardOnce sync.Once
	shard     benchShard
)

func loadBenchShard(b *testing.B) *benchShard {
	b.Helper()
	shardOnce.Do(func() {
		db := ledgerCorpus(b)
		ring, err := hashring.RingFromIDs([]string{"shard-0", "shard-1", "shard-2", "shard-3"}, 0)
		if err != nil {
			panic(err)
		}
		var (
			ids  []int
			fps  []core.Footprint
			lead []bool
		)
		for u, id := range db.IDs {
			if tuple := ring.ReplicaIndices(id, 2); slices.Contains(tuple, 0) {
				ids, fps, lead = append(ids, id), append(fps, db.Row(u)), append(lead, tuple[0] == 0)
			}
		}
		mem, err := store.FromFootprints("shard-0", ids, fps)
		if err != nil {
			panic(err)
		}
		mem.EnableSketches(0, 0)
		cols, err := store.FromColumnar(mem.Columnar(nil))
		if err != nil {
			panic(err)
		}
		shard = benchShard{cols: cols, uc: NewUserCentricIndex(cols, BuildSTR, 0), lead: lead}
	})
	return &shard
}

// benchQuery is one query with everything before the bound step done.
type benchQuery struct {
	cands  []int
	qsk    sketch.Sketch
	qnorm  float64
	stored int // stored cells of the candidates: what a gather visits
}

// prepareQueries readies the corpus queries for the bound step over db,
// with uc's candidates of each, cut to the users keep selects (nil: all).
func prepareQueries(queries []core.Footprint, db *store.FootprintDB, uc *UserCentricIndex, keep []bool) []benchQuery {
	out := make([]benchQuery, len(queries))
	for i, q := range queries {
		bq := benchQuery{cands: uc.Candidates(q.MBR(), nil), qsk: sketch.Build(q, db.SketchParams), qnorm: core.Norm(q)}
		if keep != nil {
			bq.cands = slices.DeleteFunc(bq.cands, func(u int) bool { return !keep[u] })
		}
		for _, u := range bq.cands {
			bq.stored += db.Sketch(u).Len()
		}
		out[i] = bq
	}
	return out
}

// BenchmarkBoundStep times the bound step alone — R-tree candidates in,
// non-zero bounds out — forced onto each side, for whole-corpus queries and for the cluster_r2 leg shard-0 answers
// ("-leg": its half of the corpus, the half of that it leads). ns/op
// over cells-gathered/op and over postings-walked/op price a gathered
// cell and a walked posting: gatherPerWalk is their ratio.
// "-leg-borderline" keeps the legs whose walk is estimated at 1 to
// gatherPerWalk times their gather — the ones the weight sends to walk
// where an unweighted rule gathered — and reports how many of the
// queries they are.
func BenchmarkBoundStep(b *testing.B) {
	c := loadBenchCorpus(b)
	sh := loadBenchShard(b)
	ctx := context.Background()
	for _, run := range []struct {
		name       string
		db         *store.FootprintDB
		uc         *UserCentricIndex
		keep       []bool
		borderline bool
	}{
		{"/columnar", c.cols, c.uc, nil, false},
		{"-leg/columnar", sh.cols, sh.uc, sh.lead, false},
		{"-leg-borderline/columnar", sh.cols, sh.uc, sh.lead, true},
	} {
		db := young(run.db)
		post := db.SketchPostings(1 << 40)
		qs := prepareQueries(c.queries, db, run.uc, run.keep)
		if run.borderline {
			qs = slices.DeleteFunc(qs, func(q benchQuery) bool {
				walk := float64(post.Walk(&q.qsk)*db.Len()) / float64(len(q.cands)*post.Len())
				return walk <= 1 || walk > gatherPerWalk
			})
		}
		var scored []SketchCandidate
		b.Run("gather"+run.name, func(b *testing.B) {
			b.ReportAllocs()
			b.ReportMetric(float64(len(qs)), "queries")
			var cands, cells, bounds int
			for i := 0; i < b.N; i++ {
				q := &qs[i%len(qs)]
				scored, _ = boundByGather(ctx, db, q.cands, &q.qsk, q.qnorm, scored[:0])
				cands, cells, bounds = cands+len(q.cands), cells+q.stored, bounds+len(scored)
			}
			b.ReportMetric(float64(cands)/float64(b.N), "candidates/op")
			b.ReportMetric(float64(cells)/float64(b.N), "cells-gathered/op")
			b.ReportMetric(float64(bounds)/float64(b.N), "bounds/op")
		})
		b.Run("postings"+run.name, func(b *testing.B) {
			b.ReportAllocs()
			var cands, walked, bounds int
			for i := 0; i < b.N; i++ {
				q := &qs[i%len(qs)]
				scored, _ = boundByPostings(ctx, db, post, q.cands, &q.qsk, q.qnorm, scored[:0])
				cands, walked, bounds = cands+len(q.cands), walked+post.Walk(&q.qsk), bounds+len(scored)
			}
			b.ReportMetric(float64(cands)/float64(b.N), "candidates/op")
			b.ReportMetric(float64(walked)/float64(b.N), "postings-walked/op")
			b.ReportMetric(float64(bounds)/float64(b.N), "bounds/op")
		})
	}
}

// BenchmarkPostingsBuild times the transpose an epoch builds once it
// has crossed its build line, and reports its size: 20
// bytes per posting (user, root, float32 mass and peak) plus the starts.
func BenchmarkPostingsBuild(b *testing.B) {
	c := loadBenchCorpus(b)
	b.Run("columnar", func(b *testing.B) {
		b.ReportAllocs()
		postings := 0
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			db := young(c.cols)
			b.StartTimer()
			postings = db.SketchPostings(1 << 40).Len()
		}
		g := c.cols.SketchParams.G
		b.ReportMetric(float64(postings), "postings")
		b.ReportMetric(float64(20*postings+4*(g*g+1))/(1<<20), "MiB")
	})
}

// BenchmarkMissStages replays one uncached query the way TopK runs it
// (user-centric source, k = 5) with a stopwatch between the stages, the bound step forced onto each side: the seed
// (select the k best bounds, join them, drop the bounds below their
// k-th score) and the order of what survives it are timed apart, and
// survivors/op counts the bounds the order heapifies. Before timing
// anything it checks the replay against the real loop: the same
// refinement count on every query, or the table would describe a loop
// nobody runs.
func BenchmarkMissStages(b *testing.B) {
	c := loadBenchCorpus(b)
	ctx := context.Background()
	const k = 5
	db := young(c.cols)
	post := db.SketchPostings(1 << 40)
	stageNames := [...]string{"candidates", "norm", "build", "bound", "seed", "order", "refine"}
	for _, side := range []string{"gather", "postings"} {
		b.Run(side, func(b *testing.B) {
			var (
				stages    [len(stageNames)]time.Duration
				cands     []int
				scored    []SketchCandidate
				best      []SketchCandidate
				refined   int
				survivors int
			)
			replay := func(q core.Footprint) int {
				t0 := time.Now()
				cands = c.uc.Candidates(q.MBR(), cands[:0])
				t1 := time.Now()
				qnorm := core.Norm(q)
				t2 := time.Now()
				qsk := sketch.Build(q, db.SketchParams)
				t3 := time.Now()
				if side == "gather" {
					scored, _ = boundByGather(ctx, db, cands, &qsk, qnorm, scored[:0])
				} else {
					scored, _ = boundByPostings(ctx, db, post, cands, &qsk, qnorm, scored[:0])
				}
				t4 := time.Now()
				r := Refiner{Col: topk.New(k)}
				var rest []SketchCandidate
				rest, best = r.Seed(db, scored, best[:0], q, k, qnorm)
				t5 := time.Now()
				order := OrderByBound(rest)
				stages[0] += t1.Sub(t0)
				stages[1] += t2.Sub(t1)
				stages[2] += t3.Sub(t2)
				stages[3] += t4.Sub(t3)
				stages[4] += t5.Sub(t4)
				stages[5] += time.Since(t5)
				survivors += len(rest)
				for t := time.Now(); order.Len() > 0; {
					c := order.Next()
					tn := time.Now()
					stages[5] += tn.Sub(t)
					if r.Col.Len() == k && c.Bound < r.Col.Threshold() {
						break
					}
					r.join(db, c.User, q, qnorm)
					t = time.Now()
					stages[6] += t.Sub(tn)
				}
				return r.Refined
			}
			for _, q := range c.queries[:64] {
				var st SketchStats
				if _, err := TopK(ctx, db, c.uc, q, AdHoc, k, nil, &st); err != nil {
					b.Fatal(err)
				}
				if got := replay(q); got != st.Refined {
					b.Fatalf("the replay refined %d candidates, TopK %d", got, st.Refined)
				}
			}
			stages, survivors = [len(stageNames)]time.Duration{}, 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				refined += replay(c.queries[i%len(c.queries)])
			}
			for s, name := range stageNames {
				b.ReportMetric(float64(stages[s].Microseconds())/float64(b.N), name+"-µs/op")
			}
			b.ReportMetric(float64(refined)/float64(b.N), "refined/op")
			b.ReportMetric(float64(survivors)/float64(b.N), "survivors/op")
		})
	}
}

// BenchmarkWrittenSet prices what an epoch's written set costs each of
// its queries, the number store's rebuildAfter is derived from: the two
// steps the set reaches — the user-centric candidates over the shared
// R-tree and the bound step over the shared transpose — for topk_miss's
// queries on an epoch that shares its base's tree and transpose and has
// rewritten s users since it, s ∈ {0, 256, 1024} (at most rebuildAfter,
// so the epoch stays on the base). The slope of ns/op over s is one
// member's cost to a query.
func BenchmarkWrittenSet(b *testing.B) {
	c := loadBenchCorpus(b)
	path := filepath.Join(b.TempDir(), "ledger.col")
	if err := c.cols.Save(path); err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	for _, s := range []int{0, 256, 1024} {
		b.Run(fmt.Sprintf("written=%d", s), func(b *testing.B) {
			db, err := store.Open(path)
			if err != nil {
				b.Fatal(err)
			}
			builder := store.NewEpochBuilder(db)
			builder.Freeze().SketchPostings(1 << 40)
			for _, u := range rand.New(rand.NewSource(7)).Perm(db.Len())[:s] {
				builder.Upsert(db.IDs[u], db.Row(u))
			}
			ep := builder.Freeze()
			ix := SharedUserCentricIndex(ep)
			runtime.GC()
			qs := make([]benchQuery, len(c.queries))
			for i, q := range c.queries {
				qs[i] = benchQuery{qsk: sketch.Build(q, ep.SketchParams), qnorm: core.Norm(q)}
			}
			var cands []int
			var scored []SketchCandidate
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q := &qs[i%len(qs)]
				cands = ix.Candidates(c.queries[i%len(qs)].MBR(), cands[:0])
				scored, _ = boundAgainst(ctx, ep, cands, &q.qsk, q.qnorm, scored[:0])
			}
		})
	}
}
