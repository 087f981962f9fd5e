package store

import (
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"geofootprint/internal/core"
	"geofootprint/internal/geom"
)

func epochSeedDB(t *testing.T, users int) *FootprintDB {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	ids := make([]int, users)
	fps := make([]core.Footprint, users)
	for u := 0; u < users; u++ {
		ids[u] = u + 1
		f := core.Footprint{}
		for r := 0; r < 3; r++ {
			x, y := rng.Float64()*0.9, rng.Float64()*0.9
			f = append(f, core.Region{
				Rect:   geom.Rect{MinX: x, MinY: y, MaxX: x + 0.05, MaxY: y + 0.05},
				Weight: 1 + rng.Float64(),
			})
		}
		fps[u] = f
	}
	db, err := FromFootprints("epoch", ids, fps)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// A held epoch is a true snapshot: the builder mutating and
// republishing must not change anything its reader observes — values,
// lengths, or the ID map.
func TestEpochPinnedSnapshotImmutable(t *testing.T) {
	db := epochSeedDB(t, 20)
	b := NewEpochBuilder(db)
	es := NewEpochStore()
	es.Publish(b.Freeze(), nil)

	snap := es.Acquire().DB()
	wantLen := snap.Len()
	wantNorm := snap.Norm(4)
	wantRegions := snap.Row(4)

	// Mutate the same user every way the serving write path can, and
	// insert a new one; publish after each.
	b.AppendRoIs(5, []core.Region{{Rect: geom.Rect{MinX: 0.01, MinY: 0.01, MaxX: 0.02, MaxY: 0.02}, Weight: 3}})
	es.Publish(b.Freeze(), nil)
	b.Upsert(5, core.Footprint{{Rect: geom.Rect{MinX: 0.5, MinY: 0.5, MaxX: 0.6, MaxY: 0.6}, Weight: 1}})
	es.Publish(b.Freeze(), nil)
	b.Upsert(999, core.Footprint{{Rect: geom.Rect{MinX: 0.3, MinY: 0.3, MaxX: 0.4, MaxY: 0.4}, Weight: 1}})
	es.Publish(b.Freeze(), nil)
	b.Remove(5)
	es.Publish(b.Freeze(), nil)

	if snap.Len() != wantLen {
		t.Fatalf("held epoch grew: %d -> %d users", wantLen, snap.Len())
	}
	if snap.Norm(4) != wantNorm {
		t.Fatalf("held epoch norm changed: %v -> %v", wantNorm, snap.Norm(4))
	}
	if snap.RowLen(4) != len(wantRegions) {
		t.Fatalf("held footprint length changed: %d -> %d", len(wantRegions), snap.RowLen(4))
	}
	for i, r := range snap.Row(4) {
		if r != wantRegions[i] {
			t.Fatalf("held footprint region %d changed: %+v -> %+v", i, wantRegions[i], r)
		}
	}
	if _, ok := snap.IndexOf(999); ok {
		t.Fatal("user inserted after the read is visible in the held epoch")
	}
	if _, ok := b.DB().IndexOf(999); !ok {
		t.Fatal("builder lost the inserted user")
	}
	if got := core.Norm(es.Acquire().DB().Row(4)); got != 0 {
		t.Fatalf("Remove not visible in the current epoch: norm %v", got)
	}
}

// A retired epoch needs no reclaiming protocol: the garbage collector
// frees its database once no query references it, and cannot free it
// while a query still holds it, however many epochs are published past
// it meanwhile.
func TestRetiredEpochCollected(t *testing.T) {
	b := NewEpochBuilder(epochSeedDB(t, 4))
	es := NewEpochStore()
	collected := make(chan uint64, 8)
	publish := func() {
		ep := es.Publish(b.Freeze(), nil)
		runtime.AddCleanup(ep.DB(), func(seq uint64) { collected <- seq }, ep.Seq())
	}
	freed := map[uint64]bool{}
	// collect runs bounded GC rounds until every seq in want is freed,
	// and reports whether they all were.
	collect := func(want ...uint64) bool {
		for round := 0; round < 20; round++ {
			runtime.GC()
			for drained := false; !drained; {
				select {
				case seq := <-collected:
					freed[seq] = true
				case <-time.After(10 * time.Millisecond):
					drained = true
				}
			}
			if !slices.ContainsFunc(want, func(seq uint64) bool { return !freed[seq] }) {
				return true
			}
		}
		return false
	}

	publish()
	publish()
	publish()
	held := es.Acquire() // a query running on epoch 3
	publish()
	publish()
	if !collect(1, 2, 4) {
		t.Fatalf("retired, unreferenced epochs not collected: freed %v", freed)
	}
	if freed[3] {
		t.Fatal("the epoch a query still holds was collected")
	}
	if held.Seq() != 3 || held.DB().Len() != 4 || held.DB().RowLen(3) != 3 {
		t.Fatalf("the held epoch changed: seq %d, %d users", held.Seq(), held.DB().Len())
	}
	held = nil // the query returns
	if !collect(3) {
		t.Fatalf("the epoch was not collected after its query returned: freed %v", freed)
	}
	if freed[5] {
		t.Fatal("the current epoch was collected")
	}
	if st := es.Stats(); st.Seq != 5 || st.Published != 5 {
		t.Fatalf("stats = %+v, want seq 5, 5 published", st)
	}
}

// TestEpochSwapChaos races lock-free readers against a writer that
// mutates, freezes and publishes continuously. Readers verify, on
// every held epoch, that the snapshot is internally consistent:
// parallel slices aligned, footprints sorted, and — the copy-on-write
// tear detector — every stored norm bit-identical to a recompute from
// the footprint the reader observes. Run under -race by make chaos.
func TestEpochSwapChaos(t *testing.T) {
	const users = 40
	db := epochSeedDB(t, users)
	b := NewEpochBuilder(db)
	es := NewEpochStore()
	es.Publish(b.Freeze(), nil)

	stop := make(chan struct{})
	fail := make(chan string, 16)
	report := func(msg string) {
		select {
		case fail <- msg:
		default:
		}
	}
	var wg sync.WaitGroup

	// Writer: the serving discipline — mutate the builder, publish
	// every batch. Mutations deliberately hammer a small user set so
	// readers overlap with in-place sorts on shared-unless-copied
	// region arrays.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(23))
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			id := 1 + rng.Intn(users)
			x := rng.Float64() * 0.9
			reg := core.Region{Rect: geom.Rect{MinX: x, MinY: x, MaxX: x + 0.03, MaxY: x + 0.03}, Weight: 1}
			switch i % 4 {
			case 0, 1:
				b.AppendRoIs(id, []core.Region{reg})
			case 2:
				b.Upsert(id, core.Footprint{reg})
			case 3:
				b.Remove(id)
			}
			es.Publish(b.Freeze(), nil)
		}
	}()

	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := es.Acquire().DB()
				n := snap.Len()
				if len(snap.chunks) != (n+chunkUsers-1)/chunkUsers || len(snap.IDs) != n || snap.chunks[len(snap.chunks)-1].users() != n-(len(snap.chunks)-1)*chunkUsers {
					report("parallel slices misaligned")
					return
				}
				u := rng.Intn(n)
				f := snap.Row(u)
				if !core.IsSortedByMinX(f) {
					report("unsorted footprint in a published epoch")
					return
				}
				if got, want := core.Norm(f), snap.Norm(u); got != want {
					report("torn read: recomputed norm differs from stored")
					return
				}
				if i, ok := snap.IndexOf(snap.IDs[u]); !ok || i != u {
					report("ID map inconsistent with IDs slice")
					return
				}
			}
		}(int64(100 + g))
	}

	time.Sleep(200 * time.Millisecond)
	close(stop)
	wg.Wait()
	select {
	case msg := <-fail:
		t.Fatal(msg)
	default:
	}
	if st := es.Stats(); st.Published < 10 {
		t.Fatalf("writer made no progress: %+v", st)
	}
}

// The builder's working database must encode byte-identically whether
// or not epochs were frozen along the way: copy-on-write changes
// backing arrays, never values. This is what keeps ingest checkpoints
// (and so crash recovery) byte-identical to the pre-epoch world. Both
// seeds hold it: one built in memory, and one opened from a snapshot
// file, whose chunks alias the mapping until a write copies them — the
// writes leave the file's bytes, and the rows of an epoch frozen before
// them, exactly as they were.
func TestEpochBuilderSnapshotBytesUnchanged(t *testing.T) {
	// 150 users: three chunks, the writes touching the first and the
	// last.
	const users = 150
	path := filepath.Join(t.TempDir(), "seed.col")
	if err := epochSeedDB(t, users).Save(path); err != nil {
		t.Fatal(err)
	}
	file, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	seeds := map[string]func(t *testing.T) *FootprintDB{
		"memory": func(t *testing.T) *FootprintDB { return epochSeedDB(t, users) },
		"opened": func(t *testing.T) *FootprintDB {
			db, err := Open(path)
			if err != nil {
				t.Fatal(err)
			}
			return db
		},
	}
	mutate := func(b *EpochBuilder, publish bool) {
		es := NewEpochStore()
		for i := 0; i < 8; i++ {
			b.AppendRoIs(1+i%4*(users/3), []core.Region{{
				Rect:   geom.Rect{MinX: float64(i) / 10, MinY: 0.1, MaxX: float64(i)/10 + 0.05, MaxY: 0.2},
				Weight: 2,
			}})
			if publish {
				es.Publish(b.Freeze(), nil)
			}
		}
		b.Upsert(users+1, core.Footprint{{Rect: geom.Rect{MinX: 0.3, MinY: 0.3, MaxX: 0.4, MaxY: 0.4}, Weight: 1}})
		b.Remove(2)
		if publish {
			es.Publish(b.Freeze(), nil)
		}
	}
	encode := func(t *testing.T, seed func(*testing.T) *FootprintDB, publish bool) []byte {
		b := NewEpochBuilder(seed(t))
		before := b.Freeze()
		want := make([]core.Footprint, users)
		for u := range want {
			want[u] = before.Row(u)
		}
		mutate(b, publish)
		for u := range want {
			if !slices.Equal(before.Row(u), want[u]) {
				t.Fatalf("the writes changed row %d of the epoch frozen before them", u)
			}
		}
		var buf writerBuf
		if err := b.DB().Columnar(nil).EncodeTo(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.b
	}
	var want []byte
	for _, name := range []string{"memory", "opened"} {
		plain := encode(t, seeds[name], false)
		frozen := encode(t, seeds[name], true)
		if string(plain) != string(frozen) {
			t.Fatalf("%s: freezing epochs perturbed the builder's encoded state", name)
		}
		if want == nil {
			want = plain
		} else if string(plain) != string(want) {
			t.Fatalf("%s: the written database encodes differently from the in-memory one", name)
		}
	}
	if after, err := os.ReadFile(path); err != nil || string(after) != string(file) {
		t.Fatalf("the writes changed the snapshot file (%v)", err)
	}
}

type writerBuf struct{ b []byte }

func (w *writerBuf) Write(p []byte) (int, error) {
	w.b = append(w.b, p...)
	return len(p), nil
}

// spineDB is a database of `users` one-region users with IDs 1..users.
func spineDB(t *testing.T, users int) *FootprintDB {
	t.Helper()
	ids := make([]int, users)
	fps := make([]core.Footprint, users)
	for u := range fps {
		x := float64(u%1000) / 1000
		ids[u] = u + 1
		fps[u] = core.Footprint{{Rect: geom.Rect{MinX: x, MinY: x, MaxX: x + 0.01, MaxY: x + 0.01}, Weight: 1}}
	}
	db, err := FromFootprints("spine", ids, fps)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// A publish copies what it wrote: after one row rewrite and one new
// user, Freeze allocates the chunk spine and nothing per user, and the
// writes allocate their chunks and the written set's words — no copy of
// the IDs, norms, MBRs or the ID map. So from about 1 000 users to
// about 64 000 what each allocates grows by the spine (Freeze) and the
// set's words (the writes) alone, rounded up to the allocator's size
// classes. Each is the fewest bytes TotalAlloc grew by over the runs.
func TestFreezeCopiesOnlyTheSpine(t *testing.T) {
	const runs = 4
	row := core.Footprint{{Rect: geom.Rect{MinX: 0.2, MinY: 0.2, MaxX: 0.3, MaxY: 0.3}, Weight: 2}}
	measure := func(users int) (writes, freeze uint64) {
		b := NewEpochBuilder(spineDB(t, users))
		b.Freeze() // the base and its ID map
		writes, freeze = math.MaxUint64, math.MaxUint64
		var before, mid, after runtime.MemStats
		for run := range runs {
			runtime.ReadMemStats(&before)
			b.Upsert(1+run*users/runs, row)
			b.Upsert(users+1+run, row)
			runtime.ReadMemStats(&mid)
			snap := b.Freeze()
			runtime.ReadMemStats(&after)
			writes = min(writes, mid.TotalAlloc-before.TotalAlloc)
			freeze = min(freeze, after.TotalAlloc-mid.TotalAlloc)
			if u, ok := snap.IndexOf(users + 1 + run); !ok || u != users+run || snap.Len() != users+run+1 {
				t.Fatalf("%d users, run %d: the inserted user is not the snapshot's last", users, run)
			}
		}
		return writes, freeze
	}
	const small, large = 1000, 64000
	sw, sf := measure(small)
	lw, lf := measure(large)
	t.Logf("Freeze: %d B at %d users, %d B at %d; the writes: %d B and %d B", sf, small, lf, large, sw, lw)
	const slack = 4096 // size-class rounding of the larger spine and set
	spine := 8 * uint64((large-small)/chunkUsers)
	set := 8 * uint64((large-small)/64)
	if lf > sf+spine+slack {
		t.Errorf("Freeze allocates %d B at %d users and %d B at %d: %d B more, over the %d B the longer spine accounts for",
			sf, small, lf, large, lf-sf, spine)
	}
	if lw > sw+set+slack {
		t.Errorf("a rewrite and an insert allocate %d B at %d users and %d B at %d: %d B more, over the %d B the written set accounts for",
			sw, small, lw, large, lw-sw, set)
	}
	if limit := 8*uint64(large/chunkUsers) + slack; lf > limit {
		t.Errorf("Freeze allocates %d B at %d users, over the %d B of its spine", lf, large, limit)
	}
}

// TestEpochAppendOnlySharingChaos races readers of held epochs against
// a builder that appends users, rewrites rows and publishes until its
// written set has crossed rebuildAfter several times — new bases, each
// with a fresh ID map. Every epoch shares the builder's IDs backing
// array and its base's map, and finds the users appended since by
// scanning; each reader checks that what it recorded of an epoch when
// it first held it — IDs, norms, MBRs, every user's IndexOf and the
// absence of the users appended later — stays exactly so. Run under
// -race by make chaos.
func TestEpochAppendOnlySharingChaos(t *testing.T) {
	const seedUsers, batch, batches = 100, 40, 5 * rebuildAfter / 40
	b := NewEpochBuilder(epochSeedDB(t, seedUsers))
	es := NewEpochStore()
	es.Publish(b.Freeze(), nil)

	done := make(chan struct{})
	fail := make(chan string, 16)
	report := func(msg string) {
		select {
		case fail <- msg:
		default:
		}
	}
	var wg sync.WaitGroup
	bases := map[*indexBase]bool{}
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		rng := rand.New(rand.NewSource(5))
		next := seedUsers + 1
		for i := 0; i < batches; i++ {
			for j := 0; j < batch; j++ {
				x := rng.Float64() * 0.9
				reg := core.Region{Rect: geom.Rect{MinX: x, MinY: x, MaxX: x + 0.02, MaxY: x + 0.02}, Weight: 1}
				if j%2 == 0 {
					b.Upsert(next, core.Footprint{reg})
					next++
				} else {
					b.AppendRoIs(1+rng.Intn(next-1), []core.Region{reg})
				}
			}
			snap := b.Freeze()
			bases[snap.base.Load()] = true
			es.Publish(snap, nil)
		}
	}()

	// held is what a reader recorded of an epoch when it took it.
	type held struct {
		db    *FootprintDB
		ids   []int
		norms []float64
		mbrs  []geom.Rect
	}
	record := func(db *FootprintDB) held {
		h := held{db: db, ids: slices.Clone(db.IDs)}
		for u := range db.Len() {
			h.norms = append(h.norms, db.Norm(u))
			h.mbrs = append(h.mbrs, db.MBR(u))
		}
		return h
	}
	check := func(h held) string {
		db := h.db
		if db.Len() != len(h.ids) || !slices.Equal(db.IDs, h.ids) {
			return "a held epoch's IDs changed"
		}
		for u, id := range h.ids {
			if db.Norm(u) != h.norms[u] || db.MBR(u) != h.mbrs[u] {
				return "a held epoch's norm or MBR changed"
			}
			if i, ok := db.IndexOf(id); !ok || i != u {
				return "a held epoch lost a user's index"
			}
		}
		if _, ok := db.IndexOf(len(h.ids) + 1); ok {
			return "a held epoch finds a user appended after it"
		}
		return ""
	}
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var kept []held
			for {
				select {
				case <-done:
					return
				default:
				}
				if len(kept) < 8 {
					kept = append(kept, record(es.Acquire().DB()))
				}
				for _, h := range kept {
					if msg := check(h); msg != "" {
						report(msg)
						return
					}
				}
				if len(kept) == 8 {
					kept = kept[1:]
				}
			}
		}()
	}
	wg.Wait()
	select {
	case msg := <-fail:
		t.Fatal(msg)
	default:
	}
	if len(bases) < 3 {
		t.Fatalf("the builder started %d bases, want at least 3: rebuildAfter was not crossed", len(bases))
	}
}
