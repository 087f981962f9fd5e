package ingest

import (
	"bytes"
	"context"
	"math/rand"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"geofootprint/internal/core"
	"geofootprint/internal/extract"
	"geofootprint/internal/geom"
	"geofootprint/internal/sketch"
	"geofootprint/internal/store"
)

// testConfig returns a pipeline configuration with small extraction
// parameters (ε=0.05, τ=4) so the synthetic streams below emit RoIs
// quickly, rooted in a fresh temp dir.
func testConfig(t *testing.T) Config {
	t.Helper()
	dir := t.TempDir()
	return Config{
		WALPath:      filepath.Join(dir, "ingest.wal"),
		SnapshotPath: filepath.Join(dir, "ingest.snap"),
		Extract:      extract.Config{Epsilon: 0.05, Tau: 4},
		SessionGap:   10,
		QueueDepth:   64,
		MaxBatch:     1000,
	}
}

// testSketchParams makes the sketch layer active from the first
// sample, so the byte-identity checks cover sketch maintenance too.
var testSketchParams = sketch.Params{G: 16, Domain: geom.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}}

// genStream produces a deterministic interleaved location firehose:
// users mostly dwell (jitter within ε), sometimes relocate within a
// session, and sometimes disappear past the session gap.
func genStream(users, steps int, seed int64) []Sample {
	rng := rand.New(rand.NewSource(seed))
	type cursor struct{ x, y, t float64 }
	cur := make([]cursor, users)
	for u := range cur {
		cur[u] = cursor{rng.Float64(), rng.Float64(), rng.Float64() * 5}
	}
	out := make([]Sample, 0, steps)
	for i := 0; i < steps; i++ {
		u := rng.Intn(users)
		c := &cur[u]
		switch r := rng.Float64(); {
		case r < 0.03: // leaves and returns later: session break
			c.t += 50 + rng.Float64()*50
			c.x, c.y = rng.Float64(), rng.Float64()
		case r < 0.15: // walks to a different spot, same session
			c.t += 1
			c.x, c.y = rng.Float64(), rng.Float64()
		default: // dwells: jitter well inside ε
			c.t += 1
			c.x += (rng.Float64() - 0.5) * 0.02
			c.y += (rng.Float64() - 0.5) * 0.02
		}
		out = append(out, Sample{User: u + 1, X: c.x, Y: c.y, T: c.t})
	}
	return out
}

// splitBatches cuts a stream into pseudo-random batch sizes — the
// batching is part of the replayed record sequence, so tests exercise
// ragged boundaries.
func splitBatches(stream []Sample, seed int64) [][]Sample {
	rng := rand.New(rand.NewSource(seed))
	var batches [][]Sample
	for len(stream) > 0 {
		n := 1 + rng.Intn(40)
		if n > len(stream) {
			n = len(stream)
		}
		batches = append(batches, stream[:n])
		stream = stream[n:]
	}
	return batches
}

// runReference is runRecords over one sample batch a record.
func runReference(t *testing.T, cfg Config, db *store.FootprintDB, batches [][]Sample) {
	t.Helper()
	runRecords(t, cfg, db, asRecords(batches))
}

func asRecords(batches [][]Sample) []Record {
	recs := make([]Record, len(batches))
	for i, b := range batches {
		recs[i] = Record{Samples: b}
	}
	return recs
}

// runRecords applies records one at a time without WAL, goroutines or
// the pipeline's apply function — a batch's samples through a
// sessionizer and the RoIs they finished in one ApplyBatch, an edit in
// an ApplyBatch of its own: the uninterrupted-run oracle every
// recovery result must match.
func runRecords(t *testing.T, cfg Config, db *store.FootprintDB, recs []Record) {
	t.Helper()
	cfg = cfg.withDefaults()
	sz, err := newSessionizer(cfg.Extract, cfg.SessionGap)
	if err != nil {
		t.Fatal(err)
	}
	sink := &DBSink{DB: db, Weighting: cfg.Weighting}
	for _, rec := range recs {
		if len(rec.Samples) == 0 {
			sink.ApplyBatch([]UserRoIs{rec.Edit})
			continue
		}
		for _, s := range rec.Samples {
			if err := sz.push(s); err != nil {
				t.Fatal(err)
			}
		}
		if updates := sz.collect(nil); len(updates) > 0 {
			sink.ApplyBatch(updates)
		}
	}
}

// withEdits interleaves edits with a stream's sample batches: after
// every third batch, an upsert or a removal of a user that batch names
// (in the first half of the stream) or of one no sample names. Edits
// therefore land between a user's RoIs, on users with open sessions,
// and on users that do not exist, while the second half lets the
// stream's footprints grow back.
func withEdits(batches [][]Sample, seed int64) []Record {
	rng := rand.New(rand.NewSource(seed))
	var recs []Record
	for i, b := range batches {
		recs = append(recs, Record{Samples: b})
		if i%3 != 2 {
			continue
		}
		e := UserRoIs{User: 1000 + rng.Intn(4), Op: OpRemove}
		if 2*i < len(batches) && rng.Intn(3) != 0 {
			e.User = b[rng.Intn(len(b))].User
		}
		if rng.Intn(2) == 0 {
			e.Op = OpUpsert
			for n := 1 + rng.Intn(3); len(e.Regions) < n; {
				x, y, d := rng.Float64()*0.9, rng.Float64()*0.9, 0.01+rng.Float64()*0.09
				e.Regions = append(e.Regions, core.Region{Rect: geom.Rect{MinX: x, MinY: y, MaxX: x + d, MaxY: y + d}, Weight: float64(1 + rng.Intn(3))})
			}
			core.SortByMinX(e.Regions)
		}
		recs = append(recs, Record{Edit: e})
	}
	return recs
}

// submitRecord feeds one record as a client would, without waiting for
// an edit to apply: a batch through Ingest, an edit through the
// admission Upsert and Remove share.
func submitRecord(p *Pipeline, rec Record) (uint64, error) {
	if len(rec.Samples) > 0 {
		return p.Ingest(rec.Samples)
	}
	return p.submit(context.Background(), rec)
}

// mustMatch asserts got is byte-identical to want: footprints, norms,
// MBRs, sketches, and the columnar snapshot a checkpoint writes (which
// also tells -0 from 0).
func mustMatch(t *testing.T, got, want *store.FootprintDB) {
	t.Helper()
	if !reflect.DeepEqual(got.IDs, want.IDs) {
		t.Fatalf("IDs differ: %v vs %v", got.IDs, want.IDs)
	}
	for u := range want.IDs {
		if !slices.Equal(got.Row(u), want.Row(u)) {
			t.Fatalf("footprint of user %d differs", want.IDs[u])
		}
	}
	if !reflect.DeepEqual(got.Norms, want.Norms) {
		t.Fatal("norms differ")
	}
	if !reflect.DeepEqual(got.MBRs, want.MBRs) {
		t.Fatal("MBRs differ")
	}
	if got.SketchParams != want.SketchParams {
		t.Fatal("sketch params differ")
	}
	for u := range want.IDs {
		if want.SketchesEnabled() && !reflect.DeepEqual(got.Sketch(u), want.Sketch(u)) {
			t.Fatalf("sketch of user %d differs", want.IDs[u])
		}
	}
	if !bytes.Equal(encodeDB(t, got), encodeDB(t, want)) {
		t.Fatal("columnar snapshot encodings differ")
	}
}

// ingestAll is submitAll over one sample batch a record.
func ingestAll(t *testing.T, p *Pipeline, batches [][]Sample) {
	t.Helper()
	submitAll(t, p, asRecords(batches))
}

// submitAll feeds records with the retry-on-429 behavior a real
// client has: back off briefly when the pipeline pushes back.
func submitAll(t *testing.T, p *Pipeline, recs []Record) {
	t.Helper()
	for _, rec := range recs {
		for {
			_, err := submitRecord(p, rec)
			if err == nil {
				break
			}
			if err != ErrBacklogFull {
				t.Fatal(err)
			}
			time.Sleep(500 * time.Microsecond)
		}
	}
}

// A full live run (WAL + queue + apply goroutine), closed cleanly,
// recovers to exactly the reference database — and the stream is rich
// enough to make that meaningful (sessions closed, RoIs emitted,
// sessions still open at the end).
func TestLiveRunMatchesReference(t *testing.T) {
	cfg := testConfig(t)
	batches := splitBatches(genStream(20, 6000, 1), 2)

	rec, err := Recover(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec.DB.SketchParams = testSketchParams
	p, err := New(cfg, &DBSink{DB: rec.DB}, rec.State)
	if err != nil {
		t.Fatal(err)
	}
	ingestAll(t, p, batches)
	if err := p.Drain(); err != nil {
		t.Fatal(err)
	}
	st := p.Stats()
	if st.Sessions == 0 || st.RoIs == 0 {
		t.Fatalf("degenerate stream: %+v", st)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	after, err := Recover(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if after.Replayed != 0 {
		t.Fatalf("clean close left %d WAL records", after.Replayed)
	}
	if len(after.State.Sessions) == 0 {
		t.Fatal("no open sessions survived the snapshot; stream too clean to test continuation")
	}

	want := &store.FootprintDB{Name: "ingest", SketchParams: testSketchParams}
	runReference(t, cfg, want, batches)
	mustMatch(t, after.DB, want)
}

// Stopping half way (clean close, open sessions checkpointed) and
// restarting must continue sessions exactly: the final database equals
// an uninterrupted run over the whole stream.
func TestRestartContinuesOpenSessions(t *testing.T) {
	cfg := testConfig(t)
	batches := splitBatches(genStream(15, 6000, 3), 4)
	half := len(batches) / 2

	rec, err := Recover(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec.DB.SketchParams = testSketchParams
	p, err := New(cfg, &DBSink{DB: rec.DB}, rec.State)
	if err != nil {
		t.Fatal(err)
	}
	ingestAll(t, p, batches[:half])
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	rec2, err := Recover(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec2.State.Sessions) == 0 {
		t.Fatal("no open sessions at restart; test is vacuous")
	}
	p2, err := New(cfg, &DBSink{DB: rec2.DB}, rec2.State)
	if err != nil {
		t.Fatal(err)
	}
	ingestAll(t, p2, batches[half:])
	if err := p2.Close(); err != nil {
		t.Fatal(err)
	}

	final, err := Recover(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := &store.FootprintDB{Name: "ingest", SketchParams: testSketchParams}
	runReference(t, cfg, want, batches)
	mustMatch(t, final.DB, want)
}

// Periodic checkpoints (snapshot + WAL reset) mid-stream must not
// change the recovered bytes.
func TestPeriodicSnapshots(t *testing.T) {
	cfg := testConfig(t)
	cfg.SnapshotEvery = 7
	batches := splitBatches(genStream(12, 5000, 5), 6)

	rec, err := Recover(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec.DB.SketchParams = testSketchParams
	p, err := New(cfg, &DBSink{DB: rec.DB}, rec.State)
	if err != nil {
		t.Fatal(err)
	}
	ingestAll(t, p, batches)
	if err := p.Drain(); err != nil {
		t.Fatal(err)
	}
	if p.Stats().Snapshots == 0 {
		t.Fatal("no periodic snapshot fired")
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	final, err := Recover(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := &store.FootprintDB{Name: "ingest", SketchParams: testSketchParams}
	runReference(t, cfg, want, batches)
	mustMatch(t, final.DB, want)
}

func TestSampleBatchRoundTrip(t *testing.T) {
	in := []Sample{{User: 7, X: 0.25, Y: -0.5, T: 1234.5}, {User: -3, X: 0, Y: 1, T: 0}}
	payload := EncodeBatch(nil, in)
	out, err := decodeBatch(payload)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip: %v vs %v", in, out)
	}
	if _, err := decodeBatch(payload[:len(payload)-1]); err == nil {
		t.Fatal("short payload not rejected")
	}
}

func TestParseNDJSON(t *testing.T) {
	body := `{"user":1,"x":0.5,"y":0.25,"t":10}

{"user":2,"x":0.1,"y":0.2,"t":11.5}
`
	samples, err := ParseNDJSON(strings.NewReader(body), 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 2 || samples[1] != (Sample{User: 2, X: 0.1, Y: 0.2, T: 11.5}) {
		t.Fatalf("parsed %+v", samples)
	}
	if _, err := ParseNDJSON(strings.NewReader(body), 1); err == nil {
		t.Fatal("over-limit batch not rejected")
	}
	if _, err := ParseNDJSON(strings.NewReader("{bad json}"), 10); err == nil {
		t.Fatal("malformed line not rejected")
	}
}

// The collect order is first-emission order, not map order — the
// deterministic apply order the byte-identity guarantee rests on.
func TestCollectOrderIsEmissionOrder(t *testing.T) {
	sz, err := newSessionizer(extract.Config{Epsilon: 0.05, Tau: 2}, 10)
	if err != nil {
		t.Fatal(err)
	}
	// User 9 completes a region (via session break) before user 1 does.
	feed := []Sample{
		{User: 1, X: 0.5, Y: 0.5, T: 1},
		{User: 9, X: 0.1, Y: 0.1, T: 1},
		{User: 9, X: 0.1, Y: 0.1, T: 2},
		{User: 9, X: 0.9, Y: 0.9, T: 100}, // gap: flushes 9's region
		{User: 1, X: 0.5, Y: 0.5, T: 2},
		{User: 1, X: 0.9, Y: 0.1, T: 200}, // gap: flushes 1's region
	}
	for _, s := range feed {
		if err := sz.push(s); err != nil {
			t.Fatal(err)
		}
	}
	updates := sz.collect(nil)
	if len(updates) != 2 || updates[0].User != 9 || updates[1].User != 1 {
		t.Fatalf("collect order = %+v, want user 9 then 1", updates)
	}
	if sz.collect(nil) != nil {
		t.Fatal("second collect not empty")
	}
}

// Out-of-order or duplicate timestamps start a new session rather than
// corrupting the extractor's temporal-order invariant.
func TestNonIncreasingTimeSplitsSession(t *testing.T) {
	sz, err := newSessionizer(extract.Config{Epsilon: 0.05, Tau: 3}, 1000)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		sz.push(Sample{User: 1, X: 0.5, Y: 0.5, T: float64(i + 1)})
	}
	// Clock reset: must flush the 3-sample region above.
	sz.push(Sample{User: 1, X: 0.5, Y: 0.5, T: 1})
	updates := sz.collect(nil)
	if len(updates) != 1 || len(updates[0].RoIs) != 1 || updates[0].RoIs[0].Count != 3 {
		t.Fatalf("updates = %+v, want one 3-sample RoI", updates)
	}
}

// With no log, every record — a sample batch or an edit — is applied
// by the call that submits it, through the same apply function, and
// nothing runs in the background: no apply goroutine to close, no WAL
// in the stats.
func TestUnloggedPipelineAppliesInline(t *testing.T) {
	cfg := testConfig(t)
	cfg.WALPath, cfg.SnapshotPath = "", ""
	db := &store.FootprintDB{Name: "ingest"}
	p, err := New(cfg, &DBSink{DB: db}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p.done != nil {
		t.Fatal("an unlogged pipeline started an apply goroutine")
	}
	ctx := context.Background()
	f := core.Footprint{{Rect: geom.Rect{MinX: 0.1, MinY: 0.1, MaxX: 0.2, MaxY: 0.2}, Weight: 1}}
	if lsn, err := p.Upsert(ctx, 5, f); err != nil || lsn != 1 {
		t.Fatalf("Upsert = (%d, %v), want LSN 1", lsn, err)
	}
	if lsn, err := p.Ingest(emittingRecord); err != nil || lsn != 2 {
		t.Fatalf("Ingest = (%d, %v), want LSN 2", lsn, err)
	}
	if lsn, err := p.Remove(ctx, 5); err != nil || lsn != 3 {
		t.Fatalf("Remove = (%d, %v), want LSN 3", lsn, err)
	}
	// No Drain needed: each call returned with its record applied.
	want := &store.FootprintDB{Name: "ingest"}
	runRecords(t, cfg, want, []Record{
		{Edit: UserRoIs{User: 5, Op: OpUpsert, Regions: f}},
		{Samples: emittingRecord},
		{Edit: UserRoIs{User: 5, Op: OpRemove}},
	})
	mustMatch(t, db, want)
	if st := p.Stats(); st.Applied != 3 || st.Appended != 3 || st.WALBytes != 0 || st.WALSealed || p.WALErr() != nil {
		t.Fatalf("stats %+v, WALErr %v", st, p.WALErr())
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Upsert(ctx, 6, f); err != ErrClosed {
		t.Fatalf("Upsert after Close: %v, want ErrClosed", err)
	}
}
