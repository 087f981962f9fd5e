package ingest

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"geofootprint/internal/extract"
	"geofootprint/internal/store"
)

// Group commit applies however many WAL records happen to be queued as
// one unit, so the grouping of a live run is timing. These tests hold
// the two halves of the contract: the data cannot tell how records
// were grouped, and the pipeline's bookkeeping (applied, checkpoint
// cadence) still counts records.

// revisitBatches builds a stream made to expose an order that depends
// on grouping: every user keeps returning to a few spots, each visit
// long enough to finish a dwell, and each visit's first sample sits at
// the spot's exact x while the rest jitter to its right and around its
// y. The RoIs of one spot therefore share MinX bit for bit and differ
// in the other three coordinates, and with thirty visits over three
// spots a user's footprint passes twelve regions — the size from which
// an unstable sort stops preserving the order of equal keys.
func revisitBatches(seed int64) [][]Sample {
	const users, spots, visits = 5, 3, 30
	rng := rand.New(rand.NewSource(seed))
	type cursor struct {
		t     float64
		spot  int
		queue []Sample
		left  int
	}
	cur := make([]cursor, users)
	for u := range cur {
		cur[u] = cursor{t: rng.Float64(), spot: rng.Intn(spots), left: visits}
	}
	spotX := func(u, j int) float64 { return 0.1 + 0.3*float64(j) + 0.01*float64(u) }
	spotY := func(u, j int) float64 { return 0.15 + 0.15*float64(u) + 0.02*float64(j) }
	var stream []Sample
	for {
		var live []int
		for u := range cur {
			if len(cur[u].queue) > 0 || cur[u].left > 0 {
				live = append(live, u)
			}
		}
		if len(live) == 0 {
			break
		}
		u := live[rng.Intn(len(live))]
		c := &cur[u]
		if len(c.queue) == 0 {
			// Next visit, at a different spot; now and then after an
			// absence that closes the session instead of a walk.
			c.left--
			c.spot = (c.spot + 1 + rng.Intn(spots-1)) % spots
			if rng.Float64() < 0.2 {
				c.t += 50
			}
			x0, y0 := spotX(u, c.spot), spotY(u, c.spot)
			for i, n := 0, 4+rng.Intn(3); i < n; i++ {
				c.t++
				s := Sample{User: u + 1, X: x0, Y: y0 + (rng.Float64()-0.5)*0.02, T: c.t}
				if i > 0 {
					s.X += rng.Float64() * 0.02
				}
				c.queue = append(c.queue, s)
			}
		}
		stream = append(stream, c.queue[0])
		c.queue = c.queue[1:]
	}
	var batches [][]Sample
	for len(stream) > 0 {
		n := min(1+rng.Intn(12), len(stream))
		batches = append(batches, stream[:n])
		stream = stream[n:]
	}
	return batches
}

// roiKey identifies one RoI across runs: a user never has two with the
// same start time.
type roiKey struct {
	user int
	roi  extract.RoI
}

// groupRef is spelling (a), the one recovery uses: one record per
// ApplyBatch through DBSink. Besides the databases (with the sketch
// layer, and without for WAL-only recoveries, which start sketch-less)
// it keeps which record finished which RoI, so a live run's sink can
// tell which records an ApplyBatch covered. Records are numbered by
// LSN, 1-based.
type groupRef struct {
	sketched, plain *store.FootprintDB
	origin          map[roiKey]uint64
	cum             []uint64 // cum[l] = RoIs finished by records 1..l
}

func newGroupRef(t *testing.T, cfg Config, batches [][]Sample) *groupRef {
	t.Helper()
	ref := &groupRef{
		sketched: &store.FootprintDB{Name: "ingest", SketchParams: testSketchParams},
		plain:    &store.FootprintDB{Name: "ingest"},
		origin:   make(map[roiKey]uint64),
		cum:      make([]uint64, len(batches)+1),
	}
	runReference(t, cfg, ref.sketched, batches)
	runReference(t, cfg, ref.plain, batches)
	sz, err := newSessionizer(cfg.Extract, cfg.withDefaults().SessionGap)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range batches {
		for _, s := range b {
			if err := sz.push(s); err != nil {
				t.Fatal(err)
			}
		}
		lsn := uint64(i + 1)
		ref.cum[lsn] = ref.cum[lsn-1]
		for _, up := range sz.collect() {
			for _, r := range up.RoIs {
				ref.origin[roiKey{up.User, r}] = lsn
				ref.cum[lsn]++
			}
		}
	}
	regions, shared := 0, false
	for _, f := range ref.plain.Footprints {
		regions = max(regions, len(f))
		for i := 1; i < len(f); i++ {
			shared = shared || (f[i].Rect.MinX == f[i-1].Rect.MinX && f[i].Rect != f[i-1].Rect)
		}
	}
	if regions <= 12 || !shared {
		t.Fatalf("stream too tame: largest footprint %d regions, equal-MinX neighbours %v", regions, shared)
	}
	return ref
}

func (r *groupRef) emits(lsn uint64) bool { return r.cum[lsn] > r.cum[lsn-1] }

// groupCall is what one ApplyBatch of a live run covered.
type groupCall struct {
	applied   uint64 // Stats().Applied when the call arrived
	maxOrigin uint64 // newest record with an RoI in the call
	records   int    // distinct records with an RoI in the call
	rois      uint64
}

// holdSink is the live run's sink: it checks every ApplyBatch against
// the reference, records what it covered, and parks the apply
// goroutine inside the call when armed — the queue then fills behind a
// group the test chose.
type holdSink struct {
	t     *testing.T
	inner Sink
	ref   *groupRef
	p     *Pipeline // set before the first Ingest

	hold     atomic.Bool
	entered  chan struct{}
	release  chan struct{}
	received atomic.Uint64 // RoIs the inner sink holds

	mu    sync.Mutex
	calls []groupCall
}

func newHoldSink(t *testing.T, inner Sink, ref *groupRef) *holdSink {
	return &holdSink{t: t, inner: inner, ref: ref, entered: make(chan struct{}), release: make(chan struct{})}
}

func (h *holdSink) ApplyBatch(updates []UserRoIs) {
	call := groupCall{applied: h.p.Stats().Applied}
	if h.ref != nil {
		// Everything up to applied is already in the sink, nothing
		// beyond it is, and the call brings a whole run of records.
		if got, want := h.received.Load(), h.ref.cum[call.applied]; got != want {
			h.t.Errorf("applied=%d with %d RoIs in the sink, records 1..%d finished %d", call.applied, got, call.applied, want)
		}
		seen := map[uint64]bool{}
		for _, up := range updates {
			for _, r := range up.RoIs {
				lsn, ok := h.ref.origin[roiKey{up.User, r}]
				if !ok || lsn <= call.applied {
					h.t.Errorf("user %d RoI %+v: origin record %d (known %v) not after applied=%d", up.User, r, lsn, ok, call.applied)
				}
				seen[lsn] = true
				call.maxOrigin = max(call.maxOrigin, lsn)
				call.rois++
			}
		}
		call.records = len(seen)
		if want := h.ref.cum[call.maxOrigin] - h.ref.cum[call.applied]; call.rois != want {
			h.t.Errorf("call after applied=%d reaches record %d with %d RoIs, those records finished %d", call.applied, call.maxOrigin, call.rois, want)
		}
	}
	h.mu.Lock()
	h.calls = append(h.calls, call)
	h.mu.Unlock()
	if h.hold.CompareAndSwap(true, false) {
		h.entered <- struct{}{}
		<-h.release
	}
	h.inner.ApplyBatch(updates)
	for _, up := range updates {
		h.received.Add(uint64(len(up.RoIs)))
	}
}

func (h *holdSink) WithDB(fn func(db *store.FootprintDB)) { h.inner.WithDB(fn) }

func (h *holdSink) snapshotCalls() []groupCall {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]groupCall(nil), h.calls...)
}

// awaitParked blocks until the armed sink has parked the apply
// goroutine.
func (h *holdSink) awaitParked() {
	h.t.Helper()
	select {
	case <-h.entered:
	case <-time.After(10 * time.Second):
		h.t.Fatal("apply goroutine never reached the armed sink")
	}
}

// await polls cond the way Pipeline.Drain polls applied.
func await(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// mustIngest feeds one record and checks it got the LSN the reference
// numbered it with.
func mustIngest(t *testing.T, p *Pipeline, b []Sample, want uint64) {
	t.Helper()
	lsn, err := p.Ingest(b)
	if err != nil || lsn != want {
		t.Fatalf("Ingest = (%d, %v), want LSN %d", lsn, err, want)
	}
}

// The property: (a) one record per ApplyBatch, (b) the live pipeline
// with groups of one, of two, of a whole full queue and whatever a
// free-running tail produces, and (c) recovery from the WAL (b) wrote —
// alone, and on top of a checkpoint taken mid-stream through the
// checkpoint's own group — end in the same bits. Meanwhile applied
// never runs ahead of the sink, from the apply goroutine's view (the
// sink's checks) and from a concurrent reader's.
func TestGroupCommitCrashEquivalence(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		for _, checkpoint := range []bool{false, true} {
			t.Run(fmt.Sprintf("seed=%d/checkpoint=%v", seed, checkpoint), func(t *testing.T) {
				groupedRun(t, seed, checkpoint)
			})
		}
	}
}

func groupedRun(t *testing.T, seed int64, checkpoint bool) {
	cfg := testConfig(t)
	cfg.QueueDepth = 16
	batches := revisitBatches(seed)
	ref := newGroupRef(t, cfg, batches)
	depth := uint64(cfg.QueueDepth)

	// Where the test shapes groups: records two, two+1, two+2 all
	// finish RoIs (parked on the first, the other two queue and land
	// together); full finishes one too and has a queue's worth of
	// records after it.
	var two, full uint64
	for l := uint64(3); l+2 < uint64(len(batches)); l++ {
		if ref.emits(l) && ref.emits(l+1) && ref.emits(l+2) {
			two = l
			break
		}
	}
	for l := two + 4; two > 0 && l+depth+4 < uint64(len(batches)); l++ {
		if ref.emits(l) {
			full = l
			break
		}
	}
	if full == 0 {
		t.Fatalf("stream of %d records has no room for the shaped groups (two=%d)", len(batches), two)
	}

	live := &store.FootprintDB{Name: "ingest", SketchParams: testSketchParams}
	sink := newHoldSink(t, &DBSink{DB: live}, ref)
	p, err := New(cfg, sink, nil)
	if err != nil {
		t.Fatal(err)
	}
	sink.p = p
	closed := false
	defer func() {
		if !closed {
			p.Close()
		}
	}()

	// A concurrent reader of the same invariant: whatever applied says
	// is queryable is in the sink. Applied is read first; the sink
	// only grows.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			applied := p.Stats().Applied
			if got, want := sink.received.Load(), ref.cum[applied]; got < want {
				t.Errorf("reader: applied=%d but the sink holds %d of the %d RoIs records 1..%d finished", applied, got, want, applied)
				return
			}
		}
	}()
	defer wg.Wait()
	defer close(stop)

	next := uint64(1)
	feed := func() { mustIngest(t, p, batches[next-1], next); next++ }
	appliedIs := func(l uint64) func() bool { return func() bool { return p.Stats().Applied >= l } }
	// One record at a time, each applied before the next is sent:
	// groups of one.
	alone := func(until uint64) {
		for next < until {
			feed()
			await(t, "a lone record to apply", appliedIs(next-1))
		}
	}

	alone(two)
	sink.hold.Store(true)
	feed()
	sink.awaitParked()
	if checkpoint {
		// Due after the parked group; the two records queued below
		// are then applied by the checkpoint's own drain.
		p.TriggerSnapshot()
	}
	feed()
	feed()
	sink.release <- struct{}{}
	await(t, "the group of two", appliedIs(two+2))
	if checkpoint {
		await(t, "the triggered checkpoint", func() bool { return p.Stats().Snapshots == 1 })
	}

	alone(full)
	sink.hold.Store(true)
	feed()
	sink.awaitParked()
	for i := uint64(0); i < depth; i++ {
		feed()
	}
	if _, err := p.Ingest(batches[next-1]); err != ErrBacklogFull {
		t.Fatalf("record %d behind a parked sink and a full queue: %v, want ErrBacklogFull", next, err)
	}
	sink.release <- struct{}{}
	await(t, "the full-queue group", appliedIs(full+depth))

	var sawOne, sawTwo, sawFull bool
	for _, c := range sink.snapshotCalls() {
		sawOne = sawOne || (c.records == 1 && c.maxOrigin == c.applied+1)
		sawTwo = sawTwo || (c.applied == two && c.maxOrigin == two+2 && c.records == 2)
		sawFull = sawFull || (c.applied == full && c.records >= 2 && c.rois == ref.cum[full+depth]-ref.cum[full])
	}
	if !sawOne || !sawTwo || !sawFull {
		t.Fatalf("groups seen: one=%v two=%v full queue=%v in %+v", sawOne, sawTwo, sawFull, sink.snapshotCalls())
	}

	// The tail runs free: the writer does not wait, so groups are
	// whatever the race between it and the apply goroutine makes them.
	ingestAll(t, p, batches[next-1:])
	if err := p.Drain(); err != nil {
		t.Fatal(err)
	}
	st := p.Stats()
	if st.Applied != uint64(len(batches)) || st.RoIs != ref.cum[len(batches)] {
		t.Fatalf("drained at applied=%d rois=%d, want %d and %d", st.Applied, st.RoIs, len(batches), ref.cum[len(batches)])
	}
	mustMatch(t, live, ref.sketched)

	// Crash here (no Close): recovery replays one record at a time.
	rec, err := Recover(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if checkpoint {
		if want := len(batches) - int(two+2); rec.Replayed != want || rec.Skipped != 0 {
			t.Fatalf("replayed %d, skipped %d; want the %d records after the checkpoint", rec.Replayed, rec.Skipped, want)
		}
		mustMatch(t, rec.DB, ref.sketched)
	} else {
		if rec.Replayed != len(batches) {
			t.Fatalf("replayed %d of %d records", rec.Replayed, len(batches))
		}
		mustMatch(t, rec.DB, ref.plain)
	}

	// And a clean shutdown checkpoints the same bits.
	closed = true
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
	mustMatch(t, after.DB, ref.sketched)
}

// emittingRecord finishes one RoI for user 1: a dwell of τ+1 samples,
// then a sample past the session gap that flushes it.
var emittingRecord = []Sample{
	{User: 1, X: 0.5, Y: 0.5, T: 1},
	{User: 1, X: 0.5, Y: 0.5, T: 2},
	{User: 1, X: 0.5, Y: 0.5, T: 3},
	{User: 1, X: 0.5, Y: 0.5, T: 4},
	{User: 1, X: 0.5, Y: 0.5, T: 5},
	{User: 1, X: 0.9, Y: 0.9, T: 100},
}

// The bookkeeping a group must not blur: checkpoints are due by
// records, a requested checkpoint follows the group in flight, and a
// group that finished nothing moves applied without touching the sink.
func TestGroupCommitEpochBookkeeping(t *testing.T) {
	start := func(t *testing.T, every int) (Config, *Pipeline, *holdSink) {
		cfg := testConfig(t)
		cfg.QueueDepth = 16
		cfg.SnapshotEvery = every
		sink := newHoldSink(t, &DBSink{DB: &store.FootprintDB{Name: "ingest"}}, nil)
		p, err := New(cfg, sink, nil)
		if err != nil {
			t.Fatal(err)
		}
		sink.p = p
		t.Cleanup(func() { p.Close() })
		return cfg, p, sink
	}
	// parkThenQueue parks the apply goroutine on record 1 and queues n
	// records that finish nothing behind it.
	parkThenQueue := func(t *testing.T, p *Pipeline, sink *holdSink, n int, parked func()) {
		sink.hold.Store(true)
		mustIngest(t, p, emittingRecord, 1)
		sink.awaitParked()
		if parked != nil {
			parked()
		}
		for i := 0; i < n; i++ {
			mustIngest(t, p, []Sample{{User: 2 + i, X: 0.2, Y: 0.2, T: 1}}, uint64(2+i))
		}
		sink.release <- struct{}{}
	}

	t.Run("SnapshotEveryCountsRecords", func(t *testing.T) {
		// Two groups, five records: due at five records, not at five
		// groups.
		_, p, sink := start(t, 5)
		parkThenQueue(t, p, sink, 4, nil)
		await(t, "the checkpoint due after five records", func() bool { return p.Stats().Snapshots == 1 })
		if st := p.Stats(); st.Applied != 5 || len(sink.snapshotCalls()) != 1 {
			t.Fatalf("applied=%d after %d ApplyBatch calls, want 5 after 1", st.Applied, len(sink.snapshotCalls()))
		}
	})

	t.Run("TriggerSnapshotAfterCurrentGroup", func(t *testing.T) {
		// Requested while record 1 is being applied: the checkpoint
		// follows that group without waiting for more input, and covers
		// the three records queued meanwhile.
		cfg, p, sink := start(t, 0)
		parkThenQueue(t, p, sink, 3, p.TriggerSnapshot)
		await(t, "the requested checkpoint", func() bool { return p.Stats().Snapshots == 1 })
		rec, err := Recover(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if rec.State.Seq != 4 || rec.Replayed != 0 || rec.DB.Len() != 1 {
			t.Fatalf("checkpoint at seq %d, %d records left to replay, %d users; want 4, 0, 1", rec.State.Seq, rec.Replayed, rec.DB.Len())
		}
	})

	t.Run("EmptyGroupAdvancesApplied", func(t *testing.T) {
		_, p, sink := start(t, 0)
		mustIngest(t, p, []Sample{{User: 7, X: 0.3, Y: 0.3, T: 1}}, 1)
		if err := p.Drain(); err != nil {
			t.Fatal(err)
		}
		if st := p.Stats(); st.Applied != 1 || len(sink.snapshotCalls()) != 0 {
			t.Fatalf("applied=%d after %d ApplyBatch calls, want 1 after 0", st.Applied, len(sink.snapshotCalls()))
		}
	})
}
