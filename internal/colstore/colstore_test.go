package colstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"testing"

	"geofootprint/internal/sketch"
)

// sampleSnapshot builds a small but fully-featured snapshot: three
// users (one with several regions, one with a single region, one
// tombstoned with none), sketch sections, a meta blob and a name.
func sampleSnapshot() *Snapshot {
	return &Snapshot{
		Name:   "unit",
		Meta:   []byte("checkpoint-meta"),
		IDs:    []int64{42, 7, 99},
		Starts: []int64{0, 3, 4, 4},
		MinX:   []float64{0.0, 0.5, 0.5, -2.0},
		MinY:   []float64{0.0, 1.0, -1.0, -2.0},
		MaxX:   []float64{1.0, 1.5, 2.5, -1.0},
		MaxY:   []float64{1.0, 2.0, 0.0, -1.0},
		Weight: []float64{0.25, 1.0, 0.5, 2.0},
		Norms:  []float64{1.25, 2.0, 0},
		MBRs: []float64{
			0.0, -1.0, 2.5, 2.0,
			-2.0, -2.0, -1.0, -1.0,
			math.Inf(1), math.Inf(1), math.Inf(-1), math.Inf(-1),
		},
		SketchG:    8,
		Domain:     [4]float64{-2, -2, 3, 3},
		CellStarts: []int64{0, 3, 4, 4},
		Cells:      []int32{0, 9, 18, 1},
		CellMass:   []float32{0.5, 0.25, 0.25, 2.0},
		CellPeak:   []float32{0.25, 1.5, 0.5, 2.0},
		CellRoot:   []float64{0.70, 0.5, 0.5, 1.41},
	}
}

func encode(t *testing.T, s *Snapshot) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.EncodeTo(&buf); err != nil {
		t.Fatalf("EncodeTo: %v", err)
	}
	return buf.Bytes()
}

func writeFile(t *testing.T, data []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "snap.col")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func equalF64(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func equalF32(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

func equalI64(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func equalI32(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func checkEqual(t *testing.T, want, got *Snapshot) {
	t.Helper()
	if got.Name != want.Name {
		t.Errorf("name %q, want %q", got.Name, want.Name)
	}
	if !bytes.Equal(got.Meta, want.Meta) {
		t.Errorf("meta %q, want %q", got.Meta, want.Meta)
	}
	if !equalI64(got.IDs, want.IDs) || !equalI64(got.Starts, want.Starts) {
		t.Errorf("ids/starts mismatch")
	}
	for name, pair := range map[string][2][]float64{
		"minx": {got.MinX, want.MinX}, "miny": {got.MinY, want.MinY},
		"maxx": {got.MaxX, want.MaxX}, "maxy": {got.MaxY, want.MaxY},
		"weight": {got.Weight, want.Weight}, "norms": {got.Norms, want.Norms},
		"mbrs": {got.MBRs, want.MBRs}, "root": {got.CellRoot, want.CellRoot},
	} {
		if !equalF64(pair[0], pair[1]) {
			t.Errorf("%s column mismatch", name)
		}
	}
	if !equalF32(got.CellMass, want.CellMass) || !equalF32(got.CellPeak, want.CellPeak) {
		t.Errorf("mass/peak column mismatch")
	}
	if got.SketchG != want.SketchG || got.Domain != want.Domain {
		t.Errorf("raster params %d/%v, want %d/%v", got.SketchG, got.Domain, want.SketchG, want.Domain)
	}
	if !equalI64(got.CellStarts, want.CellStarts) || !equalI32(got.Cells, want.Cells) {
		t.Errorf("sketch CSR mismatch")
	}
}

func TestRoundTripBothModes(t *testing.T) {
	want := sampleSnapshot()
	path := writeFile(t, encode(t, want))
	for _, tc := range []struct {
		name string
		mode Mode
		zero bool // zero-copy expected
	}{
		{"read", ModeRead, false},
		{"mmap", ModeMmap, mmapSupported},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.mode == ModeMmap && !mmapSupported {
				t.Skip("mmap unsupported on this platform")
			}
			got, err := Open(path, tc.mode)
			if err != nil {
				t.Fatalf("Open(%s): %v", tc.name, err)
			}
			defer got.Close()
			checkEqual(t, want, got)
			if got.ZeroCopy() != tc.zero {
				t.Errorf("ZeroCopy() = %v, want %v", got.ZeroCopy(), tc.zero)
			}
			if got.NumUsers() != 3 || got.NumRegions() != 4 || !got.HasSketches() || got.Version != Version {
				t.Errorf("counts: users=%d regions=%d sketches=%v version=%d",
					got.NumUsers(), got.NumRegions(), got.HasSketches(), got.Version)
			}
		})
	}
}

// v1Fixture is a version-1 file — float64 mass, no peak block —
// written by the last release of the version-1 writer: 41 users at
// G = 16, one tombstoned, one escaping the sketch domain.
const v1Fixture = "../store/testdata/v1-sketch.col"

// TestOpenVersion1: a version-1 file opens on both paths, reports its
// version, carries no peaks, and holds each float64 mass of the file
// rounded up to float32 — what a version-2 writer would have stored.
func TestOpenVersion1(t *testing.T) {
	raw, err := os.ReadFile(v1Fixture)
	if err != nil {
		t.Fatal(err)
	}
	if v := binary.LittleEndian.Uint32(raw[8:12]); v != 1 {
		t.Fatalf("fixture is version %d", v)
	}
	e := tableEntry(t, raw, secCellMass)
	off, n := binary.LittleEndian.Uint64(e[8:16]), binary.LittleEndian.Uint64(e[16:24])
	for _, mode := range []Mode{ModeRead, ModeMmap} {
		snap, err := Open(v1Fixture, mode)
		if err != nil {
			t.Fatalf("mode %d: %v", mode, err)
		}
		if snap.Version != 1 || !snap.HasSketches() || snap.CellPeak != nil || uint64(len(snap.CellMass))*8 != n {
			t.Fatalf("mode %d: version %d, sketches %v, %d peaks, %d masses for a %d-byte block",
				mode, snap.Version, snap.HasSketches(), len(snap.CellPeak), len(snap.CellMass), n)
		}
		for i, m := range snap.CellMass {
			if want := sketch.Float32Up(math.Float64frombits(binary.LittleEndian.Uint64(raw[off+8*uint64(i):]))); m != want {
				t.Fatalf("mode %d: mass %d is %v, want %v", mode, i, m, want)
			}
		}
		snap.Close()
	}
}

func TestRoundTripNoSketchesNoMeta(t *testing.T) {
	want := sampleSnapshot()
	want.Meta = nil
	want.SketchG, want.Domain = 0, [4]float64{}
	want.CellStarts, want.Cells, want.CellMass, want.CellPeak, want.CellRoot = nil, nil, nil, nil, nil
	got, err := Open(writeFile(t, encode(t, want)), ModeAuto)
	if err != nil {
		t.Fatal(err)
	}
	defer got.Close()
	checkEqual(t, want, got)
	if got.HasSketches() {
		t.Error("HasSketches() = true on a sketch-less file")
	}
	if got.Meta != nil {
		t.Errorf("meta = %q, want nil", got.Meta)
	}
}

func TestRoundTripEmptyDatabase(t *testing.T) {
	want := &Snapshot{Name: "empty", IDs: []int64{}, Starts: []int64{0},
		MinX: []float64{}, MinY: []float64{}, MaxX: []float64{}, MaxY: []float64{},
		Weight: []float64{}, Norms: []float64{}, MBRs: []float64{}}
	got, err := Open(writeFile(t, encode(t, want)), ModeAuto)
	if err != nil {
		t.Fatal(err)
	}
	defer got.Close()
	if got.NumUsers() != 0 || got.NumRegions() != 0 || got.Name != "empty" {
		t.Errorf("users=%d regions=%d name=%q", got.NumUsers(), got.NumRegions(), got.Name)
	}
}

func TestEncodeRejectsBadShape(t *testing.T) {
	for name, mutate := range map[string]func(*Snapshot){
		"ragged column":  func(s *Snapshot) { s.MaxY = s.MaxY[:2] },
		"starts length":  func(s *Snapshot) { s.Starts = s.Starts[:2] },
		"norms length":   func(s *Snapshot) { s.Norms = s.Norms[:1] },
		"starts span":    func(s *Snapshot) { s.Starts[3] = 9 },
		"cell span":      func(s *Snapshot) { s.CellStarts[3] = 9 },
		"ragged sketch":  func(s *Snapshot) { s.CellRoot = s.CellRoot[:1] },
		"ragged peak":    func(s *Snapshot) { s.CellPeak = s.CellPeak[:3] },
		"decreasing CSR": func(s *Snapshot) { s.Starts[1], s.Starts[2] = 4, 3 },
	} {
		t.Run(name, func(t *testing.T) {
			s := sampleSnapshot()
			mutate(s)
			if err := s.EncodeTo(&bytes.Buffer{}); err == nil {
				t.Errorf("EncodeTo accepted %s", name)
			}
		})
	}
}

// recrcHeader recomputes the header CRC after a test patched header or
// table bytes, so the corruption under test — not the checksum guarding
// it — is what the reader trips on.
func recrcHeader(data []byte) {
	count := binary.LittleEndian.Uint32(data[16:20])
	tableEnd := headerSize + int(count)*tableEntrySize
	binary.LittleEndian.PutUint32(data[32:36], 0)
	binary.LittleEndian.PutUint32(data[32:36], crc32.Checksum(data[:tableEnd], castagnoli))
}

// patchSection locates kind's table entry and hands the test its
// payload plus a way to restamp the section CRC.
func patchSection(t *testing.T, data []byte, kind uint32, mutate func(payload []byte)) {
	t.Helper()
	count := int(binary.LittleEndian.Uint32(data[16:20]))
	for i := 0; i < count; i++ {
		e := data[headerSize+i*tableEntrySize:]
		if binary.LittleEndian.Uint32(e[0:4]) != kind {
			continue
		}
		off := binary.LittleEndian.Uint64(e[8:16])
		length := binary.LittleEndian.Uint64(e[16:24])
		payload := data[off : off+length]
		mutate(payload)
		binary.LittleEndian.PutUint32(e[4:8], crc32.Checksum(payload, castagnoli))
		recrcHeader(data)
		return
	}
	t.Fatalf("no section of kind %d", kind)
}

// tableEntry returns kind's section table entry (a view into data).
func tableEntry(t *testing.T, data []byte, kind uint32) []byte {
	t.Helper()
	count := int(binary.LittleEndian.Uint32(data[16:20]))
	for i := 0; i < count; i++ {
		if e := data[headerSize+i*tableEntrySize:]; binary.LittleEndian.Uint32(e[0:4]) == kind {
			return e[:tableEntrySize]
		}
	}
	t.Fatalf("no section of kind %d", kind)
	return nil
}

// dropSection removes kind's entry from the section table — swapped to
// the end, then cut off by the section count — leaving its payload in
// the file unreferenced. The caller restamps the header CRC.
func dropSection(t *testing.T, data []byte, kind uint32) {
	t.Helper()
	count := int(binary.LittleEndian.Uint32(data[16:20]))
	for i := 0; i < count; i++ {
		e := data[headerSize+i*tableEntrySize : headerSize+(i+1)*tableEntrySize]
		if binary.LittleEndian.Uint32(e[0:4]) != kind {
			continue
		}
		last := data[headerSize+(count-1)*tableEntrySize : headerSize+count*tableEntrySize]
		tmp := append([]byte(nil), e...)
		copy(e, last)
		copy(last, tmp)
		binary.LittleEndian.PutUint32(data[16:20], uint32(count-1))
		return
	}
	t.Fatalf("no section of kind %d", kind)
}

// TestCorruptionFaultMatrix damages a valid file one way at a time and
// proves every damage class fails loudly — with the right typed error —
// on both the mmap and the read path. Runs under `make chaos`.
func TestCorruptionFaultMatrix(t *testing.T) {
	valid := encode(t, sampleSnapshot())
	cases := []struct {
		name   string
		mutate func([]byte) []byte
		want   error
	}{
		{"truncated file", func(d []byte) []byte { return d[:len(d)-16] }, ErrCorrupt},
		{"truncated to mid-table", func(d []byte) []byte { return d[:headerSize+tableEntrySize/2] }, ErrCorrupt},
		{"flipped payload byte", func(d []byte) []byte {
			d[len(d)-8] ^= 0x40 // inside the last section's payload
			return d
		}, ErrCorrupt},
		{"flipped section CRC byte", func(d []byte) []byte {
			d[headerSize+4] ^= 0x01 // manifest entry's CRC field; breaks the header CRC too
			return d
		}, ErrCorrupt},
		{"wrong version", func(d []byte) []byte {
			binary.LittleEndian.PutUint32(d[8:12], Version+1)
			recrcHeader(d)
			return d
		}, ErrVersion},
		{"bad magic", func(d []byte) []byte {
			copy(d[0:8], "NOTACOLS")
			return d
		}, ErrNotColumnar},
		{"empty file", func(d []byte) []byte { return nil }, ErrNotColumnar},
		{"misaligned section offset", func(d []byte) []byte {
			// Bump the last section's offset by 4: 8-alignment breaks.
			count := int(binary.LittleEndian.Uint32(d[16:20]))
			e := d[headerSize+(count-1)*tableEntrySize:]
			binary.LittleEndian.PutUint64(e[8:16], binary.LittleEndian.Uint64(e[8:16])+4)
			recrcHeader(d)
			return d
		}, ErrCorrupt},
		{"section spans past EOF", func(d []byte) []byte {
			count := int(binary.LittleEndian.Uint32(d[16:20]))
			e := d[headerSize+(count-1)*tableEntrySize:]
			binary.LittleEndian.PutUint64(e[16:24], uint64(len(d)))
			recrcHeader(d)
			return d
		}, ErrCorrupt},
		{"header size field lies", func(d []byte) []byte {
			binary.LittleEndian.PutUint64(d[24:32], uint64(len(d))+8)
			recrcHeader(d)
			return d
		}, ErrCorrupt},
		{"zero section count", func(d []byte) []byte {
			binary.LittleEndian.PutUint32(d[16:20], 0)
			binary.LittleEndian.PutUint32(d[32:36], 0)
			binary.LittleEndian.PutUint32(d[32:36], crc32.Checksum(d[:headerSize], castagnoli))
			return d
		}, ErrCorrupt},
		// Crafted files: every checksum restamped, so only the
		// structural check stands between them and the bound step's
		// dense gather, which indexes a G×G table by cell id.
		{"sketch cell past the raster", func(d []byte) []byte {
			patchSection(t, d, secCells, func(p []byte) {
				binary.LittleEndian.PutUint32(p[8:12], 8*8) // user 0's last cell: 18 -> G²
			})
			return d
		}, ErrCorrupt},
		{"negative sketch cell", func(d []byte) []byte {
			patchSection(t, d, secCells, func(p []byte) {
				binary.LittleEndian.PutUint32(p[12:16], 0xFFFFFFFF) // user 1's only cell: 1 -> -1
			})
			return d
		}, ErrCorrupt},
		{"negative first sketch cell", func(d []byte) []byte {
			patchSection(t, d, secCells, func(p []byte) {
				binary.LittleEndian.PutUint32(p[0:4], 0x80000000) // still strictly increasing
			})
			return d
		}, ErrCorrupt},
		{"sketch resolution above the maximum", func(d []byte) []byte {
			patchSection(t, d, secManifest, func(p []byte) {
				binary.LittleEndian.PutUint32(p[24:28], sketch.MaxG+1)
			})
			return d
		}, ErrCorrupt},
		{"sketch resolution 2^32-1", func(d []byte) []byte {
			patchSection(t, d, secManifest, func(p []byte) {
				binary.LittleEndian.PutUint32(p[24:28], 0xFFFFFFFF)
			})
			return d
		}, ErrCorrupt},
		{"sketch resolution zero", func(d []byte) []byte {
			patchSection(t, d, secManifest, func(p []byte) {
				binary.LittleEndian.PutUint32(p[24:28], 0)
			})
			return d
		}, ErrCorrupt},
		// The version-2 peak block, damaged every way the others can be.
		{"cellpeak CRC flipped", func(d []byte) []byte {
			e := tableEntry(t, d, secCellPeak)
			d[binary.LittleEndian.Uint64(e[8:16])] ^= 0x08 // its first payload byte, CRC left stale
			return d
		}, ErrCorrupt},
		{"cellpeak truncated", func(d []byte) []byte {
			e := tableEntry(t, d, secCellPeak)
			binary.LittleEndian.PutUint64(e[16:24], binary.LittleEndian.Uint64(e[16:24])-4)
			off, n := binary.LittleEndian.Uint64(e[8:16]), binary.LittleEndian.Uint64(e[16:24])
			binary.LittleEndian.PutUint32(e[4:8], crc32.Checksum(d[off:off+n], castagnoli))
			recrcHeader(d)
			return d
		}, ErrCorrupt},
		{"cellpeak missing from a version-2 table", func(d []byte) []byte {
			// The sketch flag promises a peak block the table no longer
			// lists.
			dropSection(t, d, secCellPeak)
			recrcHeader(d)
			return d
		}, ErrCorrupt},
		{"cellpeak in a version-1 file", func(d []byte) []byte {
			binary.LittleEndian.PutUint32(d[8:12], 1)
			recrcHeader(d)
			return d
		}, ErrCorrupt},
	}
	modes := []struct {
		name string
		mode Mode
	}{{"read", ModeRead}, {"mmap", ModeMmap}}
	for _, tc := range cases {
		data := tc.mutate(append([]byte(nil), valid...))
		path := writeFile(t, data)
		for _, m := range modes {
			t.Run(tc.name+"/"+m.name, func(t *testing.T) {
				if m.mode == ModeMmap && !mmapSupported {
					t.Skip("mmap unsupported on this platform")
				}
				snap, err := Open(path, m.mode)
				if err == nil {
					snap.Close()
					t.Fatalf("Open accepted a file with %s", tc.name)
				}
				if !errors.Is(err, tc.want) {
					t.Errorf("error %v, want %v", err, tc.want)
				}
			})
		}
	}
}

// TestCorruptionFaultUnsortedColumn breaks the MinX-sorted invariant
// inside an otherwise checksum-consistent file: the reader must treat
// it as corruption (no writer in this repo produces unsorted columns,
// and the flattened kernels rely on the order).
func TestCorruptionFaultUnsortedColumn(t *testing.T) {
	data := encode(t, sampleSnapshot())
	patchSection(t, data, secMinX, func(p []byte) {
		// Swap user 0's first two MinX values (0.0 and 0.5).
		a := binary.LittleEndian.Uint64(p[0:8])
		b := binary.LittleEndian.Uint64(p[8:16])
		binary.LittleEndian.PutUint64(p[0:8], b)
		binary.LittleEndian.PutUint64(p[8:16], a)
	})
	if _, err := Open(writeFile(t, data), ModeRead); !errors.Is(err, ErrCorrupt) {
		t.Errorf("unsorted minx: error %v, want ErrCorrupt", err)
	}
}

// TestCorruptionFaultSketchOrder breaks the strictly-increasing sketch
// cell invariant the merge-join dot relies on.
func TestCorruptionFaultSketchOrder(t *testing.T) {
	data := encode(t, sampleSnapshot())
	patchSection(t, data, secCells, func(p []byte) {
		a := binary.LittleEndian.Uint32(p[0:4])
		b := binary.LittleEndian.Uint32(p[4:8])
		binary.LittleEndian.PutUint32(p[0:4], b)
		binary.LittleEndian.PutUint32(p[4:8], a)
	})
	if _, err := Open(writeFile(t, data), ModeRead); !errors.Is(err, ErrCorrupt) {
		t.Errorf("unsorted cells: error %v, want ErrCorrupt", err)
	}
}

// TestCloseFaultIdempotent exercises the unmap lifecycle: Close twice,
// then prove a fresh Open still works (the file was never written).
func TestCloseFaultIdempotent(t *testing.T) {
	if !mmapSupported {
		t.Skip("mmap unsupported on this platform")
	}
	path := writeFile(t, encode(t, sampleSnapshot()))
	snap, err := Open(path, ModeMmap)
	if err != nil {
		t.Fatal(err)
	}
	// MAP_PRIVATE: a stray in-place write must hit a COW page, not the
	// file (the store zeroes norms of tombstoned users in place).
	snap.Norms[0] = 0
	if err := snap.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := snap.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	again, err := Open(path, ModeMmap)
	if err != nil {
		t.Fatalf("re-Open after Close: %v", err)
	}
	if again.Norms[0] != 1.25 {
		t.Errorf("COW write leaked to the file: norms[0] = %v", again.Norms[0])
	}
	again.Close()
}
