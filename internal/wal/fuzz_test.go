package wal

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// record encodes one on-disk record, as Append writes it.
func record(lsn uint64, payload []byte) []byte {
	b := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	b = binary.LittleEndian.AppendUint64(b, lsn)
	crc := crc32.Update(crc32.Checksum(b[4:12], castagnoli), castagnoli, payload)
	b = binary.LittleEndian.AppendUint32(b, crc)
	return append(b, payload...)
}

// parseRef is the oracle: the records of data's longest CRC-valid
// prefix, walked straight over the bytes, and that prefix's length.
func parseRef(data []byte) (recs []Record, valid int) {
	for {
		rest := data[valid:]
		if len(rest) < headerSize {
			return recs, valid
		}
		n := binary.LittleEndian.Uint32(rest)
		if n > MaxRecordSize || uint64(len(rest)-headerSize) < uint64(n) {
			return recs, valid
		}
		lsn := binary.LittleEndian.Uint64(rest[4:])
		payload := rest[headerSize : headerSize+int(n)]
		if !bytes.Equal(record(lsn, payload), rest[:headerSize+int(n)]) {
			return recs, valid
		}
		recs = append(recs, Record{LSN: lsn, Payload: payload})
		valid += headerSize + int(n)
	}
}

// Arbitrary file bytes replay as their CRC-valid prefix, flagged
// damaged when anything follows it, without a panic and without
// allocating more than the read buffer and the copies kept here (a
// length prefix claiming more bytes than the file holds allocates
// nothing); Open truncates the file to that prefix and continues the
// sequence after its last record.
func FuzzReplay(f *testing.F) {
	two := append(record(1, []byte("first")), record(2, []byte("second record"))...)
	f.Add([]byte{})
	f.Add(two)
	f.Add(two[:len(two)-3])                                           // torn payload
	f.Add(append(append([]byte(nil), two...), 0, 0))                  // torn header
	f.Add(append(record(7, []byte("x")), record(9, nil)...))          // gapped LSNs, empty payload
	f.Add(append(record(1, []byte("ok")), 0xff, 0xff, 0xff, 0x7f, 1)) // absurd length prefix
	huge := record(3, nil)
	binary.LittleEndian.PutUint32(huge, MaxRecordSize) // a maximal record whose payload never came
	f.Add(huge)
	bad := record(4, []byte("crc"))
	bad[len(bad)-1] ^= 1
	f.Add(append(record(3, []byte("fine")), bad...))

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.wal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		want, valid := parseRef(data)

		var got []Record
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		n, damaged, err := Replay(path, func(r Record) error {
			got = append(got, Record{LSN: r.LSN, Payload: bytes.Clone(r.Payload)})
			return nil
		})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if alloc, bound := after.TotalAlloc-before.TotalAlloc, uint64(2<<20+2*len(data)); alloc > bound {
			t.Fatalf("replay of %d bytes allocated %d bytes, over %d", len(data), alloc, bound)
		}
		if n != len(want) || len(got) != len(want) || damaged != (valid < len(data)) {
			t.Fatalf("replayed %d records (%d seen), damaged %v; want %d records of a %d-byte prefix of %d bytes",
				n, len(got), damaged, len(want), valid, len(data))
		}
		for i := range want {
			if got[i].LSN != want[i].LSN || !bytes.Equal(got[i].Payload, want[i].Payload) {
				t.Fatalf("record %d: LSN %d, %d bytes; want LSN %d, %d bytes",
					i, got[i].LSN, len(got[i].Payload), want[i].LSN, len(want[i].Payload))
			}
		}

		l, err := Open(path, Options{Policy: SyncNone})
		if err != nil {
			t.Fatal(err)
		}
		next, size := l.NextLSN(), l.Size()
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		wantNext := uint64(1)
		if len(want) > 0 {
			wantNext = want[len(want)-1].LSN + 1
		}
		if size != int64(valid) || next != wantNext {
			t.Fatalf("Open: size %d, next LSN %d; want %d, %d", size, next, valid, wantNext)
		}
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() != int64(valid) {
			t.Fatalf("Open left %d bytes; want the %d-byte valid prefix", fi.Size(), valid)
		}
	})
}
