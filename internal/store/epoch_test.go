package store

import (
	"math/rand"
	"os"
	"path/filepath"
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

// A pinned epoch is a true snapshot: the builder mutating and
// republishing must not change anything the pin observes — values,
// lengths, or the ID map.
func TestEpochPinnedSnapshotImmutable(t *testing.T) {
	db := epochSeedDB(t, 20)
	b := NewEpochBuilder(db)
	es := NewEpochStore()
	es.Publish(b.Freeze(), nil)

	ep := es.Acquire()
	defer ep.Release()
	snap := ep.DB()
	wantLen := snap.Len()
	wantNorm := snap.Norms[4]
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
		t.Fatalf("pinned epoch grew: %d -> %d users", wantLen, snap.Len())
	}
	if snap.Norms[4] != wantNorm {
		t.Fatalf("pinned epoch norm changed: %v -> %v", wantNorm, snap.Norms[4])
	}
	if snap.RowLen(4) != len(wantRegions) {
		t.Fatalf("pinned footprint length changed: %d -> %d", len(wantRegions), snap.RowLen(4))
	}
	for i, r := range snap.Row(4) {
		if r != wantRegions[i] {
			t.Fatalf("pinned footprint region %d changed: %+v -> %+v", i, wantRegions[i], r)
		}
	}
	if _, ok := snap.IndexOf(999); ok {
		t.Fatal("user inserted after the pin is visible in the pinned epoch")
	}
	if _, ok := b.DB().IndexOf(999); !ok {
		t.Fatal("builder lost the inserted user")
	}
	cur := es.Acquire()
	defer cur.Release()
	if got := core.Norm(cur.DB().Row(4)); got != 0 {
		t.Fatalf("Remove not visible in the current epoch: norm %v", got)
	}
}

// Reclamation accounting: a superseded epoch with no pins is reclaimed
// at publish; a pinned one survives until its last Release, and a late
// pin attempt on it fails over to the current epoch.
func TestEpochReclaimLifecycle(t *testing.T) {
	db := epochSeedDB(t, 4)
	b := NewEpochBuilder(db)
	es := NewEpochStore()
	es.Publish(b.Freeze(), nil)

	// Unpinned publishes reclaim eagerly: live stays at 1.
	for i := 0; i < 5; i++ {
		es.Publish(b.Freeze(), nil)
	}
	st := es.Stats()
	if st.Published != 6 || st.Reclaimed != 5 || st.Live != 1 {
		t.Fatalf("eager reclaim stats = %+v", st)
	}
	if st.Seq != 6 {
		t.Fatalf("seq = %d, want 6", st.Seq)
	}

	// A pinned epoch defers reclamation to its last Release.
	ep := es.Acquire()
	es.Publish(b.Freeze(), nil)
	if st := es.Stats(); st.Live != 2 || st.Pins != 1 {
		t.Fatalf("pinned epoch reclaimed early: %+v", st)
	}
	if !ep.tryPin() {
		t.Fatal("second pin on a retired-but-live epoch must succeed")
	}
	ep.pins.Add(-1) // undo the bare tryPin without store accounting
	ep.Release()
	st = es.Stats()
	if st.Live != 1 || st.Pins != 0 || st.Reclaimed != 6 {
		t.Fatalf("post-drain stats = %+v", st)
	}
	if ep.tryPin() {
		t.Fatal("pin succeeded on a reclaimed epoch")
	}
	if got := es.Acquire(); got.Seq() != 7 {
		t.Fatalf("Acquire pinned seq %d, want current 7", got.Seq())
	} else {
		got.Release()
	}
}

// TestEpochSwapChaos races lock-free readers against a writer that
// mutates, freezes and publishes continuously. Readers verify, on
// every pinned epoch, that the snapshot is internally consistent:
// parallel slices aligned, footprints sorted, and — the copy-on-write
// tear detector — every stored norm bit-identical to a recompute from
// the footprint the pin observes. Run under -race by make chaos.
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
				ep := es.Acquire()
				snap := ep.DB()
				n := snap.Len()
				if len(snap.chunks) != (n+chunkUsers-1)/chunkUsers || len(snap.Norms) != n || len(snap.MBRs) != n {
					report("parallel slices misaligned")
					ep.Release()
					return
				}
				u := rng.Intn(n)
				f := snap.Row(u)
				if !core.IsSortedByMinX(f) {
					report("unsorted footprint in a published epoch")
					ep.Release()
					return
				}
				if got, want := core.Norm(f), snap.Norms[u]; got != want {
					report("torn read: recomputed norm differs from stored")
					ep.Release()
					return
				}
				if i, ok := snap.IndexOf(snap.IDs[u]); !ok || i != u {
					report("ID map inconsistent with IDs slice")
					ep.Release()
					return
				}
				ep.Release()
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
	st := es.Stats()
	if st.Pins != 0 {
		t.Fatalf("pins leaked: %+v", st)
	}
	if st.Live != 1 {
		t.Fatalf("retired epochs not reclaimed: %+v", st)
	}
	if st.Published < 10 {
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
