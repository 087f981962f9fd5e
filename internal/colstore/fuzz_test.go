package colstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"testing"
)

// reseal restamps every in-bounds section CRC, the recorded file size
// and the header CRC of data, so a mutation reaches the structural
// checks behind the checksums instead of stopping at the first one.
func reseal(data []byte) {
	if len(data) < headerSize {
		return
	}
	binary.LittleEndian.PutUint64(data[24:32], uint64(len(data)))
	count := binary.LittleEndian.Uint32(data[16:20])
	if count > maxSections || headerSize+int(count)*tableEntrySize > len(data) {
		return
	}
	for i := 0; i < int(count); i++ {
		e := data[headerSize+i*tableEntrySize:]
		off, length := binary.LittleEndian.Uint64(e[8:16]), binary.LittleEndian.Uint64(e[16:24])
		if off <= uint64(len(data)) && length <= uint64(len(data))-off {
			binary.LittleEndian.PutUint32(e[4:8], crc32.Checksum(data[off:off+length], castagnoli))
		}
	}
	recrcHeader(data)
}

// FuzzColstoreOpen feeds arbitrary bytes — resealed or not — to both
// open paths. A file the reader rejects fails with ErrCorrupt,
// ErrNotColumnar or ErrVersion, never a panic; a file it accepts is one
// every row reader can slice without a bounds check failing (an opened
// database serves straight from these columns) and re-encodes.
//
// The seeds are committed under testdata/fuzz/FuzzColstoreOpen: valid
// files (sketches and meta, neither, no users, version 1), and damaged
// ones, plain and resealed.
func FuzzColstoreOpen(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, resealed bool) {
		data = bytes.Clone(data)
		if resealed {
			reseal(data)
		}
		path := writeFile(t, data)
		modes := []Mode{ModeRead}
		if mmapSupported {
			modes = append(modes, ModeMmap)
		}
		for _, mode := range modes {
			snap, err := Open(path, mode)
			if err != nil {
				if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrNotColumnar) && !errors.Is(err, ErrVersion) {
					t.Fatalf("mode %d: untyped error %v", mode, err)
				}
				continue
			}
			checkServable(t, snap)
			var out bytes.Buffer
			if snap.CellPeak == nil && snap.HasSketches() {
				// A version-1 file: the store derives the peaks at load.
				snap.CellPeak = make([]float32, len(snap.Cells))
			}
			if err := snap.EncodeTo(&out); err != nil {
				t.Fatalf("mode %d: an accepted snapshot does not re-encode: %v", mode, err)
			}
			if err := snap.Close(); err != nil {
				t.Fatal(err)
			}
		}
	})
}

// checkServable slices every user's row and sketch block the way the
// store's row readers and kernels do.
func checkServable(t *testing.T, s *Snapshot) {
	t.Helper()
	users := s.NumUsers()
	if len(s.Starts) != users+1 || len(s.Norms) != users || len(s.MBRs) != 4*users {
		t.Fatalf("accepted %d users with %d starts, %d norms, %d MBR values", users, len(s.Starts), len(s.Norms), len(s.MBRs))
	}
	cols := [][]float64{s.MinX, s.MinY, s.MaxX, s.MaxY, s.Weight}
	for u := 0; u < users; u++ {
		lo, hi := s.Starts[u], s.Starts[u+1]
		for _, c := range cols {
			_ = c[lo:hi]
		}
		if s.HasSketches() {
			clo, chi := s.CellStarts[u], s.CellStarts[u+1]
			_, _, _ = s.Cells[clo:chi], s.CellMass[clo:chi], s.CellRoot[clo:chi]
			if s.CellPeak != nil {
				_ = s.CellPeak[clo:chi]
			}
		}
	}
}
