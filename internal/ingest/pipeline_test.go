package ingest

import (
	"bytes"
	"math/rand"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

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

// runReference drives the exact live code path (sessionize per record
// batch, apply collected RoIs) without WAL or goroutines: the
// uninterrupted-run oracle every recovery result must match.
func runReference(t *testing.T, cfg Config, db *store.FootprintDB, batches [][]Sample) {
	t.Helper()
	cfg = cfg.withDefaults()
	sz, err := newSessionizer(cfg.Extract, cfg.SessionGap)
	if err != nil {
		t.Fatal(err)
	}
	sink := &DBSink{DB: db, Weighting: cfg.Weighting}
	for _, b := range batches {
		for _, s := range b {
			if err := sz.push(s); err != nil {
				t.Fatal(err)
			}
		}
		if updates := sz.collect(); len(updates) > 0 {
			sink.ApplyBatch(updates)
		}
	}
}

// mustMatch asserts got is byte-identical to want: footprints, norms,
// MBRs, sketches, and the columnar snapshot a checkpoint writes (which
// also tells -0 from 0).
func mustMatch(t *testing.T, got, want *store.FootprintDB) {
	t.Helper()
	if !reflect.DeepEqual(got.IDs, want.IDs) {
		t.Fatalf("IDs differ: %v vs %v", got.IDs, want.IDs)
	}
	if !reflect.DeepEqual(got.Footprints, want.Footprints) {
		t.Fatal("footprints differ")
	}
	if !reflect.DeepEqual(got.Norms, want.Norms) {
		t.Fatal("norms differ")
	}
	if !reflect.DeepEqual(got.MBRs, want.MBRs) {
		t.Fatal("MBRs differ")
	}
	if got.SketchParams != want.SketchParams || !reflect.DeepEqual(got.Sketches, want.Sketches) {
		t.Fatal("sketches differ")
	}
	if !bytes.Equal(encodeDB(t, got), encodeDB(t, want)) {
		t.Fatal("columnar snapshot encodings differ")
	}
}

// ingestAll feeds batches with the retry-on-429 behavior a real
// client has: back off briefly when the pipeline pushes back.
func ingestAll(t *testing.T, p *Pipeline, batches [][]Sample) {
	t.Helper()
	for _, b := range batches {
		for {
			_, err := p.Ingest(b)
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
	out, err := DecodeBatch(payload)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip: %v vs %v", in, out)
	}
	if _, err := DecodeBatch(payload[:len(payload)-1]); err == nil {
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
	updates := sz.collect()
	if len(updates) != 2 || updates[0].User != 9 || updates[1].User != 1 {
		t.Fatalf("collect order = %+v, want user 9 then 1", updates)
	}
	if sz.collect() != nil {
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
	updates := sz.collect()
	if len(updates) != 1 || len(updates[0].RoIs) != 1 || updates[0].RoIs[0].Count != 3 {
		t.Fatalf("updates = %+v, want one 3-sample RoI", updates)
	}
}
