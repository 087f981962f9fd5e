package store

import (
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
		t.Fatalf("held epoch grew: %d -> %d users", wantLen, snap.Len())
	}
	if snap.Norms[4] != wantNorm {
		t.Fatalf("held epoch norm changed: %v -> %v", wantNorm, snap.Norms[4])
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
				if len(snap.chunks) != (n+chunkUsers-1)/chunkUsers || len(snap.Norms) != n || len(snap.MBRs) != n {
					report("parallel slices misaligned")
					return
				}
				u := rng.Intn(n)
				f := snap.Row(u)
				if !core.IsSortedByMinX(f) {
					report("unsorted footprint in a published epoch")
					return
				}
				if got, want := core.Norm(f), snap.Norms[u]; got != want {
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
