package ingest

import (
	"bytes"
	"encoding/binary"
	"math"
	"os"
	"runtime"
	"testing"

	"geofootprint/internal/core"
	"geofootprint/internal/geom"
	"geofootprint/internal/traj"
)

// A WAL written before edit records existed replays, with no version
// branch, to the database bytes the code that wrote it recovered from
// it. The fixture is splitBatches(genStream(6, 400, 31), 32) ingested
// under testConfig and drained without Close; the .col file is the
// columnar encoding of that code's Recover result.
func TestPreEditWALReplaysToItsBytes(t *testing.T) {
	cfg := testConfig(t)
	copyFile(t, "testdata/pre-edit.wal", cfg.WALPath)
	want, err := os.ReadFile("testdata/pre-edit.col")
	if err != nil {
		t.Fatal(err)
	}
	rec, err := Recover(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Replayed != 20 || rec.Damaged {
		t.Fatalf("replayed %d records (damaged %v), want the fixture's 20", rec.Replayed, rec.Damaged)
	}
	if !bytes.Equal(encodeDB(t, rec.DB), want) {
		t.Fatal("recovered database differs from the bytes the fixture's writer recovered")
	}
}

// Arbitrary payloads decode to a record or an error, never a panic or
// an allocation their length cannot back, and an accepted payload
// re-encodes to the same bytes — so no two payloads mean one record.
func FuzzDecodeRecord(f *testing.F) {
	f.Add(EncodeBatch(nil, []Sample{{User: 7, X: 0.25, Y: -0.5, T: 1234.5}, {User: -3, X: 0, Y: 1, T: 0}}))
	f.Add(appendRecord(nil, Record{Edit: UserRoIs{User: 42, Op: OpUpsert, Regions: core.Footprint{
		{Rect: geom.Rect{MinX: 0.1, MinY: 0.2, MaxX: 0.3, MaxY: 0.4}, Weight: 2},
		{Rect: geom.Rect{MinX: 0.5, MinY: 0.5, MaxX: 0.6, MaxY: 0.9}, Weight: 1},
	}}}))
	f.Add(appendRecord(nil, Record{Edit: UserRoIs{User: -9, Op: OpUpsert}}))
	f.Add(appendRecord(nil, Record{Edit: UserRoIs{User: 1 << 40, Op: OpRemove}}))
	f.Add([]byte{0, 0, 0, 0})
	f.Add(binary.LittleEndian.AppendUint32(nil, 0xffffffff))
	huge := appendRecord(nil, Record{Edit: UserRoIs{User: 1, Op: OpUpsert}})
	f.Add(binary.LittleEndian.AppendUint32(huge[:len(huge)-4], 0xffffffff))

	f.Fuzz(func(t *testing.T, payload []byte) {
		rec, err := DecodeRecord(payload)
		if err != nil {
			return
		}
		if len(rec.Samples) == 0 && rec.Edit.Op != OpUpsert && rec.Edit.Op != OpRemove {
			t.Fatalf("accepted a record that is neither a batch nor an edit: %+v", rec)
		}
		if got := appendRecord(nil, rec); !bytes.Equal(got, payload) {
			t.Fatalf("re-encoded %d bytes as %d different ones", len(payload), len(got))
		}
	})
}

// Arbitrary bytes decode to checkpoint state or an error, never a panic
// or an allocation their length cannot back, and an accepted blob
// re-encodes to the same bytes — so no two blobs mean one state.
func FuzzCheckpointMeta(f *testing.F) {
	// The state of cmd/geomigrate's gob-meta fixture.
	state := EncodeState(nil, State{Seq: 2, Sessions: []SessionState{
		{User: 1, LastT: 7, HasT: true, Pending: []traj.Location{{P: geom.Point{X: 0.8, Y: 0.8}, T: 6}, {P: geom.Point{X: 0.801, Y: 0.8}, T: 7}}},
		{User: 2, LastT: 2.25, HasT: true, Pending: []traj.Location{{P: geom.Point{X: 0.5, Y: 0.5}, T: 0},
			{P: geom.Point{X: 0.5, Y: 0.501}, T: 1.5}, {P: geom.Point{X: 0.502, Y: 0.5}, T: 2.25}}},
	}})
	f.Add(EncodeState(nil, State{}))
	f.Add(state)
	f.Add(state[:len(state)-5]) // truncated
	hugeSessions := EncodeState(nil, State{Seq: 1})
	f.Add(binary.LittleEndian.AppendUint32(hugeSessions[:len(hugeSessions)-4], 0xffffffff))
	hugePending := EncodeState(nil, State{Seq: 1, Sessions: []SessionState{{User: 1}}})
	f.Add(binary.LittleEndian.AppendUint32(hugePending[:len(hugePending)-4], 0xffffffff))
	hasT := EncodeState(nil, State{Sessions: []SessionState{{User: 1, HasT: true}}})
	hasT[stateHeaderSize+16] = 2
	f.Add(hasT)
	f.Add([]byte("GFC"))

	f.Fuzz(func(t *testing.T, blob []byte) {
		var (
			s   State
			err error
		)
		alloc := callAlloc(func() { s, err = DecodeState(blob) })
		if bound := uint64(512 + 3*len(blob)); alloc > bound {
			t.Fatalf("decoding %d bytes allocated %d bytes, over %d", len(blob), alloc, bound)
		}
		if err != nil {
			return
		}
		if got := EncodeState(nil, s); !bytes.Equal(got, blob) {
			t.Fatalf("re-encoded %d bytes as %d different ones", len(blob), len(got))
		}
	})
}

// callAlloc returns the bytes fn allocates, as the fewest that
// TotalAlloc grew by over a few calls: other goroutines can only add
// to that process-wide counter, so the minimum is fn's own.
func callAlloc(fn func()) uint64 {
	least := uint64(math.MaxUint64)
	for i := 0; i < 4; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}
