package bench

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"geofootprint/internal/cache"
	"geofootprint/internal/core"
	"geofootprint/internal/engine"
	"geofootprint/internal/extract"
	"geofootprint/internal/ingest"
	"geofootprint/internal/search"
	"geofootprint/internal/store"
	"geofootprint/internal/wal"
)

// Concurrent-throughput benchmark for the serving plane: N query
// goroutines hammer top-k while the durable ingest pipeline applies a
// live sample stream, once per serving discipline:
//
//	locked       — the pre-epoch architecture: one RWMutex, queries
//	               under RLock, batch application under Lock.
//	epoch        — epoch-based MVCC: queries pin an immutable epoch
//	               (lock-free), each batch freezes and publishes the
//	               next epoch.
//	epoch-cache  — epoch MVCC plus the epoch-keyed result cache.
//
// The interesting numbers: queries_per_sec across modes (the lock
// removal), and cache_hit_mean_micros vs cache_miss_mean_micros (the
// cache win; hits must be strictly faster).

// QPSRow is one serving mode's measurement. Rates deliberately do not
// end in _seconds/_micros (benchdiff treats such keys as costs and
// would invert their meaning); the per-query latency fields do, so
// regressions in them gate PRs.
type QPSRow struct {
	Mode            string `json:"mode"`
	QueryGoroutines int    `json:"query_goroutines"`
	Users           int    `json:"users"`
	Queries         uint64 `json:"queries"`

	QueriesPerSec   float64 `json:"queries_per_sec"`
	QueryMeanMicros float64 `json:"query_mean_micros"`
	SamplesPerSec   float64 `json:"samples_per_sec"`

	// Cache behaviour; zero/omitted for the uncached modes.
	CacheHits      uint64  `json:"cache_hits"`
	CacheMisses    uint64  `json:"cache_misses"`
	HitMeanMicros  float64 `json:"cache_hit_mean_micros,omitempty"`
	MissMeanMicros float64 `json:"cache_miss_mean_micros,omitempty"`

	EpochsPublished uint64 `json:"epochs_published"`
	EpochsReclaimed uint64 `json:"epochs_reclaimed"`
}

// qpsServing abstracts one serving discipline: an ingest.Sink plus a
// query entry point reporting whether the answer came from a cache.
type qpsServing interface {
	ingest.Sink
	query(q core.Footprint, k int) (hit bool)
	users() int
	epochStats() (published, reclaimed uint64)
}

// lockedServing replicates the pre-epoch server's discipline: RWMutex
// around one mutable database, the index rebuilt under the write lock
// after every apply (as the epoch modes rebuild theirs in NewView, so
// the three modes differ in the locking alone; until PR 19 this mode
// patched its tree in place, through index methods deleted since).
type lockedServing struct {
	mu  sync.RWMutex
	db  *store.FootprintDB
	eng *engine.QueryEngine
}

func newLockedServing() *lockedServing {
	s := &lockedServing{db: &store.FootprintDB{Name: "qps"}}
	s.reindexLocked()
	return s
}

func (s *lockedServing) reindexLocked() {
	s.eng = engine.New(s.db, search.NewUserCentricIndex(s.db, search.BuildSTR, 0), 0)
}

func (s *lockedServing) ApplyBatch(updates []ingest.UserRoIs) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, u := range updates {
		s.db.AppendRoIs(u.User, core.FromRoIs(u.RoIs, 0))
	}
	s.reindexLocked()
}

func (s *lockedServing) WithDB(fn func(db *store.FootprintDB)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	fn(s.db)
}

func (s *lockedServing) query(q core.Footprint, k int) bool {
	s.mu.RLock()
	s.eng.TopK(q, k)
	s.mu.RUnlock()
	return false
}

func (s *lockedServing) users() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.db.Len()
}

func (s *lockedServing) epochStats() (uint64, uint64) { return 0, 0 }

// epochServing is the MVCC discipline of internal/server: mutations
// into a builder behind a mutex, one publish per batch, queries
// pinning the current epoch lock-free, optionally through the
// epoch-keyed cache.
type epochServing struct {
	mu sync.Mutex
	b  *store.EpochBuilder
	es *store.EpochStore
	c  *cache.Cache // nil = cache off
}

func newEpochServing(c *cache.Cache) *epochServing {
	s := &epochServing{
		b:  store.NewEpochBuilder(&store.FootprintDB{Name: "qps"}),
		es: store.NewEpochStore(),
		c:  c,
	}
	s.publishLocked()
	return s
}

func (s *epochServing) publishLocked() {
	db := s.b.Freeze()
	ep := s.es.Publish(db, engine.NewView(db, 0))
	if s.c != nil {
		s.c.Purge(ep.Seq())
	}
}

func (s *epochServing) ApplyBatch(updates []ingest.UserRoIs) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, u := range updates {
		s.b.AppendRoIs(u.User, core.FromRoIs(u.RoIs, 0))
	}
	s.publishLocked()
}

func (s *epochServing) WithDB(fn func(db *store.FootprintDB)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	fn(s.b.DB())
}

func (s *epochServing) query(q core.Footprint, k int) bool {
	ep := s.es.Acquire()
	v := ep.Aux().(*engine.View)
	_, hit, _ := v.TopKCached(context.Background(), s.c, ep.Seq(), "", q, k)
	ep.Release()
	return hit
}

func (s *epochServing) users() int {
	ep := s.es.Acquire()
	defer ep.Release()
	return ep.DB().Len()
}

func (s *epochServing) epochStats() (uint64, uint64) {
	st := s.es.Stats()
	return st.Published, st.Reclaimed
}

// qpsProbes derives n distinct probe footprints from the fixed ingest
// query by sliding it across the domain: enough variety to exercise
// the cache's key space, few enough that hits recur within an epoch.
func qpsProbes(n int) []core.Footprint {
	base := ingestQuery()
	out := make([]core.Footprint, n)
	for i := range out {
		off := 0.012 * float64(i)
		f := make(core.Footprint, len(base))
		copy(f, base)
		for j := range f {
			f[j].Rect.MinX += off
			f[j].Rect.MaxX += off
		}
		out[i] = f
	}
	return out
}

// QPSBench runs the synthetic firehose through each serving mode while
// `goroutines` query workers run top-10 probes flat out, and reports
// sustained concurrent query throughput, per-query latency (split
// hit/miss where a cache is on), ingest throughput and epoch-lifecycle
// counters. The WAL runs SyncNone so the disciplines under test — not
// fsync — bound throughput.
func QPSBench(users, samples, batchSize, goroutines int, seed int64) ([]QPSRow, error) {
	stream := ingestStream(users, samples, seed)
	probes := qpsProbes(8)

	modes := []struct {
		name string
		mk   func() qpsServing
	}{
		{"locked", func() qpsServing { return newLockedServing() }},
		{"epoch", func() qpsServing { return newEpochServing(nil) }},
		{"epoch-cache", func() qpsServing { return newEpochServing(cache.New(256)) }},
	}

	var rows []QPSRow
	for _, mode := range modes {
		dir, err := os.MkdirTemp("", "geobench-qps-*")
		if err != nil {
			return nil, err
		}
		cfg := ingest.Config{
			WALPath:      filepath.Join(dir, "qps.wal"),
			SnapshotPath: filepath.Join(dir, "qps.snap"),
			Extract:      extract.Config{Epsilon: 0.02, Tau: 10},
			SessionGap:   60,
			Sync:         wal.SyncNone,
			MaxBatch:     batchSize,
		}
		srv := mode.mk()
		p, err := ingest.New(cfg, srv, nil)
		if err != nil {
			os.RemoveAll(dir)
			return nil, err
		}

		type tally struct {
			queries, hits, misses     uint64
			total, hitTime, missTime  time.Duration
		}
		stop := make(chan struct{})
		var wg sync.WaitGroup
		tallies := make([]tally, goroutines)
		var next atomic.Uint64
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				tl := &tallies[g]
				for {
					select {
					case <-stop:
						return
					default:
					}
					q := probes[next.Add(1)%uint64(len(probes))]
					t0 := time.Now()
					hit := srv.query(q, 10)
					d := time.Since(t0)
					tl.queries++
					tl.total += d
					if hit {
						tl.hits++
						tl.hitTime += d
					} else {
						tl.misses++
						tl.missTime += d
					}
				}
			}(g)
		}

		start := time.Now()
		for off := 0; off < len(stream); off += batchSize {
			end := off + batchSize
			if end > len(stream) {
				end = len(stream)
			}
			for {
				_, err := p.Ingest(stream[off:end])
				if err == nil {
					break
				}
				if err != ingest.ErrBacklogFull {
					close(stop)
					os.RemoveAll(dir)
					return nil, err
				}
				time.Sleep(100 * time.Microsecond)
			}
		}
		if err := p.Drain(); err != nil {
			close(stop)
			os.RemoveAll(dir)
			return nil, err
		}
		ingestWall := time.Since(start).Seconds()
		// If the stream drained faster than a meaningful measurement
		// window, keep the queriers running against the final corpus so
		// every mode's throughput is measured over comparable wall time.
		const minWindow = 300 * time.Millisecond
		if left := minWindow - time.Since(start); left > 0 {
			time.Sleep(left)
		}
		wall := time.Since(start).Seconds()
		close(stop)
		wg.Wait()
		if err := p.Close(); err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
		os.RemoveAll(dir)

		var sum tally
		for _, tl := range tallies {
			sum.queries += tl.queries
			sum.hits += tl.hits
			sum.misses += tl.misses
			sum.total += tl.total
			sum.hitTime += tl.hitTime
			sum.missTime += tl.missTime
		}
		if sum.queries == 0 || srv.users() == 0 {
			return nil, fmt.Errorf("qps bench (%s): degenerate run (%d queries, %d users)",
				mode.name, sum.queries, srv.users())
		}
		pub, rec := srv.epochStats()
		row := QPSRow{
			Mode:            mode.name,
			QueryGoroutines: goroutines,
			Users:           srv.users(),
			Queries:         sum.queries,
			QueriesPerSec:   float64(sum.queries) / wall,
			QueryMeanMicros: float64(sum.total.Microseconds()) / float64(sum.queries),
			SamplesPerSec:   float64(samples) / ingestWall,
			CacheHits:       sum.hits,
			CacheMisses:     sum.misses,
			EpochsPublished: pub,
			EpochsReclaimed: rec,
		}
		if sum.hits > 0 {
			row.HitMeanMicros = float64(sum.hitTime.Microseconds()) / float64(sum.hits)
		}
		if sum.misses > 0 {
			row.MissMeanMicros = float64(sum.missTime.Microseconds()) / float64(sum.misses)
		}
		rows = append(rows, row)
	}
	return rows, nil
}
