package ingest

import (
	"bytes"
	"encoding/binary"
	"os"
	"testing"

	"geofootprint/internal/core"
	"geofootprint/internal/geom"
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
