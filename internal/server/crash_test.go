package server

import (
	"fmt"
	"net/http"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"geofootprint/internal/core"
	"geofootprint/internal/geom"
	"geofootprint/internal/ingest"
	"geofootprint/internal/search"
	"geofootprint/internal/store"
)

// A crash is recovery from disk with the pipeline still running: no
// Close, so no final checkpoint. What recovery returns must answer
// every query as LinearScan over the acknowledged writes does.

// crashRig is a WAL-backed server recovered from a snapshot of the
// test corpus, plus the oracle: the same corpus with every
// acknowledged write applied directly, in acknowledgement order.
type crashRig struct {
	t    *testing.T
	cfg  ingest.Config
	h    http.Handler
	pipe *ingest.Pipeline
	// want receives PUT/DELETE through the store and ingested batches
	// through a pipeline of its own, drained after each batch.
	want *store.FootprintDB
	ref  *ingest.Pipeline
}

func newCrashRig(t *testing.T) *crashRig {
	t.Helper()
	cfg := testIngestConfig(t)
	if err := testCorpus(t).Save(cfg.SnapshotPath); err != nil {
		t.Fatal(err)
	}
	rec, err := ingest.Recover(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := New(rec.DB)
	p, err := s.AttachPipeline(cfg, rec.State)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })

	r := &crashRig{t: t, cfg: cfg, h: s.Handler(), pipe: p, want: testCorpus(t)}
	refCfg := cfg
	dir := t.TempDir()
	refCfg.WALPath, refCfg.SnapshotPath = filepath.Join(dir, "ref.wal"), filepath.Join(dir, "ref.snap")
	if r.ref, err = ingest.New(refCfg, &ingest.DBSink{DB: r.want, Weighting: cfg.Weighting}, nil); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.ref.Close() })
	return r
}

func (r *crashRig) put(id int, f core.Footprint) {
	r.t.Helper()
	regs := make([]string, len(f))
	for i, g := range f {
		regs[i] = fmt.Sprintf(`{"rect":[%g,%g,%g,%g],"weight":%g}`, g.Rect.MinX, g.Rect.MinY, g.Rect.MaxX, g.Rect.MaxY, g.Weight)
	}
	if rec, _ := do(r.t, r.h, "PUT", fmt.Sprintf("/v1/users/%d", id), "["+strings.Join(regs, ",")+"]"); rec.Code != http.StatusOK {
		r.t.Fatalf("PUT %d: status %d: %s", id, rec.Code, rec.Body)
	}
	r.want.Upsert(id, append(core.Footprint(nil), f...))
}

func (r *crashRig) delete(id int) {
	r.t.Helper()
	if rec, _ := do(r.t, r.h, "DELETE", fmt.Sprintf("/v1/users/%d", id), ""); rec.Code != http.StatusOK {
		r.t.Fatalf("DELETE %d: status %d: %s", id, rec.Code, rec.Body)
	}
	r.want.Remove(id)
}

func (r *crashRig) ingest(user int, x, y float64) {
	r.t.Helper()
	body := dwellBatch(user, x, y)
	if rec, _ := do(r.t, r.h, "POST", "/v1/ingest", body); rec.Code != http.StatusAccepted {
		r.t.Fatalf("ingest for user %d: status %d: %s", user, rec.Code, rec.Body)
	}
	// A 202 is durable, not yet queryable: wait for it, so that a
	// DELETE that follows finds the user.
	if err := r.pipe.Drain(); err != nil {
		r.t.Fatal(err)
	}
	samples, err := ingest.ParseNDJSON(strings.NewReader(body), maxIngestSamples)
	if err != nil {
		r.t.Fatal(err)
	}
	if _, err := r.ref.Ingest(samples); err != nil {
		r.t.Fatal(err)
	}
	if err := r.ref.Drain(); err != nil {
		r.t.Fatal(err)
	}
}

// crash recovers from disk and checks the recovered database against
// the oracle: LinearScan with every stored row of either side, and a
// few ad-hoc footprints, as the query.
func (r *crashRig) crash() {
	r.t.Helper()
	rec, err := ingest.Recover(r.cfg)
	if err != nil {
		r.t.Fatal(err)
	}
	queries := []core.Footprint{
		{{Rect: geom.Rect{MinX: 0.1, MinY: 0.1, MaxX: 0.6, MaxY: 0.6}, Weight: 1}},
		{{Rect: geom.Rect{MinX: 0.3, MinY: 0.3, MaxX: 0.5, MaxY: 0.5}, Weight: 1}},
	}
	for _, db := range []*store.FootprintDB{r.want, rec.DB} {
		for u := range db.IDs {
			if db.RowLen(u) > 0 {
				queries = append(queries, db.Row(u))
			}
		}
	}
	got, want := search.NewLinearScan(rec.DB), search.NewLinearScan(r.want)
	for i, q := range queries {
		g, w := got.TopK(q, 50), want.TopK(q, 50)
		if !reflect.DeepEqual(g, w) {
			r.t.Fatalf("query %d after the crash:\nrecovered %v\nacked     %v", i, g, w)
		}
	}
}

func rect(x, y, d, w float64) core.Region {
	return core.Region{Rect: geom.Rect{MinX: x, MinY: y, MaxX: x + d, MaxY: y + d}, Weight: w}
}

// A PUT answered 200 survives a crash: a new user, and a replaced one.
func TestCrashAfterPutRecoversIt(t *testing.T) {
	r := newCrashRig(t)
	r.put(500, core.Footprint{rect(0.3, 0.3, 0.2, 1), rect(0.1, 0.2, 0.1, 2)})
	r.put(105, core.Footprint{rect(0.2, 0.2, 0.25, 1)})
	r.crash()
}

// A DELETE answered 200 survives a crash: the snapshot's user stays
// removed.
func TestCrashAfterDeleteRecoversIt(t *testing.T) {
	r := newCrashRig(t)
	r.delete(104)
	r.delete(117)
	r.crash()
}

// PUT, ingest and DELETE interleaved on the same users recover in
// acknowledgement order: RoIs ingested after a PUT extend the PUT's
// footprint, a DELETE empties whatever came before it, and a later
// ingest starts the user again.
func TestCrashAfterMixedWrites(t *testing.T) {
	r := newCrashRig(t)
	r.put(9001, core.Footprint{rect(0.7, 0.7, 0.1, 1)})
	r.ingest(9001, 0.4, 0.4)
	r.ingest(9002, 0.6, 0.2)
	r.delete(9002)
	r.put(110, core.Footprint{rect(0.5, 0.1, 0.05, 3)})
	r.delete(111)
	r.ingest(9002, 0.2, 0.6)
	r.ingest(110, 0.3, 0.3)
	r.crash()
}
