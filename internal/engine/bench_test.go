package engine

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"

	"geofootprint/internal/core"
	"geofootprint/internal/extract"
	"geofootprint/internal/store"
	"geofootprint/internal/synth"
)

// The committed stopwatch for a publish (ROADMAP aim 1):
//
//	go test -run '^$' -bench Publish -benchtime 200x ./internal/engine/
//
// on the ledger's corpus (Part A at scale 0.05: 13 900 users, the
// paper's extraction parameters, G = 64), opened from its columnar
// snapshot as geoserve opens it. EXPERIMENTS.md quotes the table.

var (
	ledgerOnce sync.Once
	ledgerDB   *store.FootprintDB
)

// ledgerSnapshot writes the ledger corpus with its sketch layer, built
// once per process, to a columnar file in b's temporary directory and
// returns its path.
func ledgerSnapshot(b *testing.B) string {
	b.Helper()
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
	path := filepath.Join(b.TempDir(), "ledger.col")
	if err := ledgerDB.Save(path); err != nil {
		b.Fatal(err)
	}
	return path
}

// BenchmarkPublish times what the server's write path pays per publish
// once the writes are in: EpochBuilder.Freeze and NewView over the
// frozen epoch, after t ∈ {1, 16, 256} users were rewritten since the
// last publish. The builder's base has published and built its R-tree
// before the timer starts, as a serving process's has, and the rewritten
// users stay the same ones, so the written set never grows past t.
//
// The appended rows time a whole publish of t ∈ {1, 16} new users —
// their inserts, Freeze and NewView — since the writes are where a
// publish that keeps an ID map per epoch pays for it. Every insert
// joins the written set, so one publish in about rebuildAfter / t
// starts a new base and pays its ID map and R-tree (≈ 3 in 200
// iterations at t = 16).
func BenchmarkPublish(b *testing.B) {
	path := ledgerSnapshot(b)
	open := func(b *testing.B) (*store.FootprintDB, *store.EpochBuilder) {
		db, err := store.Open(path)
		if err != nil {
			b.Fatal(err)
		}
		builder := store.NewEpochBuilder(db)
		NewView(builder.Freeze(), 0)
		return db, builder
	}
	for _, touched := range []int{1, 16, 256} {
		b.Run(fmt.Sprintf("touched=%d", touched), func(b *testing.B) {
			db, builder := open(b)
			users := rand.New(rand.NewSource(int64(touched))).Perm(db.Len())[:touched]
			rows := make([]core.Footprint, touched)
			for i, u := range users {
				rows[i] = db.Row(u)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				for j, u := range users {
					builder.Upsert(db.IDs[u], rows[j])
				}
				b.StartTimer()
				NewView(builder.Freeze(), 0)
			}
		})
	}
	for _, appended := range []int{1, 16} {
		b.Run(fmt.Sprintf("appended=%d", appended), func(b *testing.B) {
			db, builder := open(b)
			rng := rand.New(rand.NewSource(int64(appended)))
			rows := make([]core.Footprint, appended)
			for i := range rows {
				rows[i] = db.Row(rng.Intn(db.Len()))
			}
			next := 1 << 40 // above every corpus ID
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, row := range rows {
					builder.Upsert(next, row)
					next++
				}
				NewView(builder.Freeze(), 0)
			}
		})
	}
}
