package colstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"geofootprint/internal/faultfs"
	"geofootprint/internal/sketch"
)

// Mode selects how OpenFS maps the file into memory.
type Mode int

const (
	// ModeAuto mmaps when the opened file exposes a real OS
	// descriptor (faultfs.Fder) and the platform supports it, and
	// falls back to the io.ReadFull path otherwise — fault-injection
	// filesystems wrap the descriptor away, so fault schedules
	// naturally exercise the read path.
	ModeAuto Mode = iota
	// ModeRead forces the io.ReadFull path (heap-backed columns).
	ModeRead
	// ModeMmap requires the zero-copy mmap path and errors when it is
	// unavailable — the restart benchmark uses it so the two paths are
	// never silently conflated.
	ModeMmap
)

// Open is OpenFS on the real OS filesystem.
func Open(path string, mode Mode) (*Snapshot, error) {
	return OpenFS(faultfs.OS, path, mode)
}

// OpenFS opens, integrity-checks and decodes a columnar snapshot.
// Every section CRC is verified before the snapshot is returned, on
// both paths — a torn or flipped file fails here, never at query time.
// A file that does not start with the columnar magic returns
// ErrNotColumnar; a damaged columnar file returns an error wrapping
// ErrCorrupt.
func OpenFS(fsys faultfs.FS, path string, mode Mode) (*Snapshot, error) {
	f, err := fsys.Open(path)
	if err != nil {
		return nil, err
	}
	if mode != ModeRead {
		if fder, ok := f.(faultfs.Fder); ok && mmapSupported {
			snap, err := openMmap(f, fder.Fd(), path)
			if err == nil || mode == ModeMmap || !fallbackToRead(err) {
				//lint:ignore errdiscard read-only snapshot handle; the mapping outlives it
				f.Close()
				return snap, err
			}
			// mmap itself failed (an exotic filesystem): fall through
			// to the read path on the same still-open handle.
		} else if mode == ModeMmap {
			//lint:ignore errdiscard read-only snapshot handle on the error path
			f.Close()
			return nil, fmt.Errorf("colstore: mmap unavailable for %s (no OS descriptor)", path)
		}
	}
	snap, err := openRead(f, path)
	//lint:ignore errdiscard read-only snapshot handle; decode errors are surfaced by parse
	f.Close()
	return snap, err
}

// fallbackToRead reports whether an mmap-path error means the mapping
// mechanism failed (retry via read) rather than the file being bad
// (propagate: re-reading cannot fix corruption).
func fallbackToRead(err error) bool {
	return err != nil && !isCorruptionError(err)
}

func isCorruptionError(err error) bool {
	return errors.Is(err, ErrCorrupt) || errors.Is(err, ErrVersion) || errors.Is(err, ErrNotColumnar)
}

// openMmap maps the file MAP_PRIVATE and parses the mapping in place.
func openMmap(f faultfs.File, fd uintptr, path string) (*Snapshot, error) {
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := st.Size()
	if size < 0 || size > math.MaxInt-8 {
		return nil, corruptf("%s: impossible file size %d", path, size)
	}
	m, err := newMapping(fd, int(size))
	if err != nil {
		return nil, err
	}
	snap, err := parse(m.data, path)
	if err != nil {
		// Unmap on the error path; the parse error is what matters.
		_ = m.close()
		return nil, err
	}
	snap.src = m
	return snap, nil
}

// openRead reads the whole file into one 8-byte-aligned heap buffer
// and parses it with the same code as the mmap path.
func openRead(f faultfs.File, path string) (*Snapshot, error) {
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := st.Size()
	if size < 0 || size > math.MaxInt-8 {
		return nil, corruptf("%s: impossible file size %d", path, size)
	}
	buf := alignedBuf(int(size))
	if _, err := io.ReadFull(f, buf); err != nil {
		// The file shrank between Stat and read, or the medium
		// errored: either way the snapshot cannot be trusted.
		return nil, corruptf("%s: short read: %v", path, err)
	}
	return parse(buf, path)
}

// parse decodes and integrity-checks one columnar file image. data
// must be 8-byte aligned (mmap pages and alignedBuf both are). The
// returned snapshot's slices alias data.
func parse(data []byte, path string) (*Snapshot, error) {
	if len(data) < 8 || string(data[0:8]) != Magic {
		return nil, fmt.Errorf("%w: %s", ErrNotColumnar, path)
	}
	if len(data) < headerSize {
		return nil, corruptf("%s: %d bytes is shorter than the header", path, len(data))
	}
	version := binary.LittleEndian.Uint32(data[8:12])
	if version != 1 && version != Version {
		return nil, fmt.Errorf("%w: %s has version %d, reader supports 1 and %d", ErrVersion, path, version, Version)
	}
	flags := binary.LittleEndian.Uint32(data[12:16])
	count := binary.LittleEndian.Uint32(data[16:20])
	fileSize := binary.LittleEndian.Uint64(data[24:32])
	if count == 0 || count > maxSections {
		return nil, corruptf("%s: implausible section count %d", path, count)
	}
	tableEnd := headerSize + int(count)*tableEntrySize
	if len(data) < tableEnd {
		return nil, corruptf("%s: truncated inside the section table", path)
	}
	if fileSize != uint64(len(data)) {
		return nil, corruptf("%s: header records %d bytes, file has %d (truncated or grown)",
			path, fileSize, len(data))
	}
	// Header CRC covers header+table with the CRC field zeroed; verify
	// on a copy so the mapping is never written.
	hdr := make([]byte, tableEnd)
	copy(hdr, data[:tableEnd])
	want := binary.LittleEndian.Uint32(hdr[32:36])
	binary.LittleEndian.PutUint32(hdr[32:36], 0)
	if got := crc32.Checksum(hdr, castagnoli); got != want {
		return nil, corruptf("%s: header CRC mismatch (%08x != %08x)", path, got, want)
	}

	// Section table → per-kind payload, geometry-checked then
	// CRC-verified. Every byte of every section is checksummed before
	// any of it is interpreted.
	bykind := make(map[uint32][]byte, count)
	for i := 0; i < int(count); i++ {
		e := data[headerSize+i*tableEntrySize:]
		kind := binary.LittleEndian.Uint32(e[0:4])
		crc := binary.LittleEndian.Uint32(e[4:8])
		off := binary.LittleEndian.Uint64(e[8:16])
		length := binary.LittleEndian.Uint64(e[16:24])
		if kind == 0 || kind > secKindMax {
			return nil, corruptf("%s: unknown section kind %d", path, kind)
		}
		if _, dup := bykind[kind]; dup {
			return nil, corruptf("%s: duplicate section kind %d", path, kind)
		}
		if off%8 != 0 {
			return nil, corruptf("%s: section %d at misaligned offset %d", path, kind, off)
		}
		if off < uint64(tableEnd) || off > fileSize || length > fileSize-off {
			return nil, corruptf("%s: section %d spans [%d,+%d) outside the file",
				path, kind, off, length)
		}
		payload := data[off : off+length]
		if got := crc32.Checksum(payload, castagnoli); got != crc {
			return nil, corruptf("%s: section %d CRC mismatch (%08x != %08x)", path, kind, got, crc)
		}
		bykind[kind] = payload
	}

	s := &Snapshot{Version: int(version)}
	man, err := s.decodeManifest(bykind[secManifest], path)
	if err != nil {
		return nil, err
	}
	users, regions, cells := man.users, man.regions, man.cells

	grab := func(kind uint32, name string, wantLen int) ([]byte, error) {
		b, ok := bykind[kind]
		if !ok {
			return nil, corruptf("%s: missing %s section", path, name)
		}
		if len(b) != wantLen {
			return nil, corruptf("%s: %s section is %d bytes, want %d", path, name, len(b), wantLen)
		}
		return b, nil
	}
	var b []byte
	if b, err = grab(secIDs, "ids", users*8); err != nil {
		return nil, err
	}
	s.IDs = int64sFrom(b)
	if b, err = grab(secStarts, "starts", (users+1)*8); err != nil {
		return nil, err
	}
	s.Starts = int64sFrom(b)
	for _, col := range []struct {
		kind uint32
		name string
		dst  *[]float64
		n    int
	}{
		{secMinX, "minx", &s.MinX, regions},
		{secMinY, "miny", &s.MinY, regions},
		{secMaxX, "maxx", &s.MaxX, regions},
		{secMaxY, "maxy", &s.MaxY, regions},
		{secWeight, "weight", &s.Weight, regions},
		{secNorms, "norms", &s.Norms, users},
		{secMBRs, "mbrs", &s.MBRs, 4 * users},
	} {
		if b, err = grab(col.kind, col.name, col.n*8); err != nil {
			return nil, err
		}
		*col.dst = float64sFrom(b)
	}
	if flags&flagSketches != 0 {
		if b, err = grab(secCellStarts, "cellstarts", (users+1)*8); err != nil {
			return nil, err
		}
		s.CellStarts = int64sFrom(b)
		if b, err = grab(secCells, "cells", cells*4); err != nil {
			return nil, err
		}
		s.Cells = int32sFrom(b)
		if err := s.decodeMassPeak(grab, bykind, path, cells); err != nil {
			return nil, err
		}
		if b, err = grab(secCellRoot, "cellroot", cells*8); err != nil {
			return nil, err
		}
		s.CellRoot = float64sFrom(b)
	} else if cells != 0 {
		return nil, corruptf("%s: manifest records %d sketch cells but the sketch flag is off", path, cells)
	}
	if flags&flagMeta != 0 {
		mb, ok := bykind[secMeta]
		if !ok {
			return nil, corruptf("%s: meta flag set but meta section missing", path)
		}
		s.Meta = mb
	}
	if err := s.validate(path, regions, cells); err != nil {
		return nil, err
	}
	return s, nil
}

// decodeMassPeak installs the sketch mass and peak blocks: two float32
// sections in a version-2 file; in a version-1 file a float64 mass,
// rounded up here to what a version-2 writer stores (a heap copy), and
// no peak — the loader derives it from the region columns.
func (s *Snapshot) decodeMassPeak(grab func(uint32, string, int) ([]byte, error), bykind map[uint32][]byte, path string, cells int) error {
	if s.Version == 1 {
		if _, ok := bykind[secCellPeak]; ok {
			return corruptf("%s: cellpeak section in a version-1 file", path)
		}
		b, err := grab(secCellMass, "cellmass", cells*8)
		if err != nil {
			return err
		}
		s.CellMass = make([]float32, cells)
		for i, m := range float64sFrom(b) {
			s.CellMass[i] = sketch.Float32Up(m)
		}
		return nil
	}
	b, err := grab(secCellMass, "cellmass", cells*4)
	if err != nil {
		return err
	}
	s.CellMass = float32sFrom(b)
	if b, err = grab(secCellPeak, "cellpeak", cells*4); err != nil {
		return err
	}
	s.CellPeak = float32sFrom(b)
	return nil
}

// manifest is the fixed-size prefix of the manifest section.
type manifest struct {
	users, regions, cells int
}

func manifestCounts(b []byte) manifest {
	return manifest{
		users:   int(binary.LittleEndian.Uint64(b[0:8])),
		regions: int(binary.LittleEndian.Uint64(b[8:16])),
		cells:   int(binary.LittleEndian.Uint64(b[16:24])),
	}
}

// decodeManifest validates the manifest section and installs the
// raster parameters and name; the counts drive the per-section length
// checks in parse. Counts that went negative through the int cast —
// or that could not possibly have matching column sections in a file
// of this size — are rejected here, before any section is sized from
// them.
func (s *Snapshot) decodeManifest(b []byte, path string) (manifest, error) {
	if b == nil {
		return manifest{}, corruptf("%s: missing manifest section", path)
	}
	if len(b) < 68 {
		return manifest{}, corruptf("%s: manifest is %d bytes, want >= 68", path, len(b))
	}
	m := manifestCounts(b)
	if m.users < 0 || m.regions < 0 || m.cells < 0 {
		return manifest{}, corruptf("%s: negative manifest counts", path)
	}
	s.SketchG = int(binary.LittleEndian.Uint32(b[24:28]))
	for i := range s.Domain {
		s.Domain[i] = float64frombits(binary.LittleEndian.Uint64(b[32+8*i:]))
	}
	nameLen := int(binary.LittleEndian.Uint32(b[64:68]))
	if nameLen < 0 || nameLen != len(b)-68 {
		return manifest{}, corruptf("%s: manifest name length %d does not match section", path, nameLen)
	}
	s.Name = string(b[68 : 68+nameLen])
	return m, nil
}

// validate checks the cross-section invariants the kernels rely on:
// CSR monotonicity, exact spans, per-footprint MinX order, per-sketch
// cell order and cell range (the bound step indexes a G×G table by
// cell id, so an id outside [0, G²) would be an index panic on the
// query path, and an unbounded G a G²-sized allocation). All
// O(users + regions + cells).
func (s *Snapshot) validate(path string, regions, cells int) error {
	users := len(s.IDs)
	if s.Starts[0] != 0 || s.Starts[users] != int64(regions) {
		return corruptf("%s: starts span [%d,%d), want [0,%d)", path, s.Starts[0], s.Starts[users], regions)
	}
	for u := 0; u < users; u++ {
		lo, hi := s.Starts[u], s.Starts[u+1]
		if lo > hi || hi > int64(regions) {
			return corruptf("%s: user %d owns impossible region span [%d,%d)", path, u, lo, hi)
		}
		for r := lo + 1; r < hi; r++ {
			if s.MinX[r-1] > s.MinX[r] {
				return corruptf("%s: user %d regions not MinX-sorted at %d", path, u, r)
			}
		}
	}
	if s.HasSketches() {
		if s.SketchG < 1 || s.SketchG > sketch.MaxG {
			return corruptf("%s: sketch resolution %d outside [1,%d]", path, s.SketchG, sketch.MaxG)
		}
		cellEnd := int32(s.SketchG * s.SketchG)
		if s.CellStarts[0] != 0 || s.CellStarts[users] != int64(cells) {
			return corruptf("%s: cell starts span [%d,%d), want [0,%d)",
				path, s.CellStarts[0], s.CellStarts[users], cells)
		}
		for u := 0; u < users; u++ {
			lo, hi := s.CellStarts[u], s.CellStarts[u+1]
			if lo > hi || hi > int64(cells) {
				return corruptf("%s: user %d owns impossible cell span [%d,%d)", path, u, lo, hi)
			}
			for c := lo + 1; c < hi; c++ {
				if s.Cells[c-1] >= s.Cells[c] {
					return corruptf("%s: user %d sketch cells not strictly increasing at %d", path, u, c)
				}
			}
			// Strictly increasing, so the ends bound the rest.
			if lo < hi && (s.Cells[lo] < 0 || s.Cells[hi-1] >= cellEnd) {
				return corruptf("%s: user %d sketch cells [%d,%d] outside the %d×%d raster",
					path, u, s.Cells[lo], s.Cells[hi-1], s.SketchG, s.SketchG)
			}
		}
	}
	return nil
}
