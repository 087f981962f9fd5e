// Package colstore defines the columnar snapshot file format — the
// on-disk shape of a FootprintDB designed so that restart cost is
// dominated by one sequential CRC scan instead of a reflective gob
// decode of millions of region values.
//
// The file is a fixed header, a section table, and 8-byte-aligned
// payload sections, all little-endian:
//
//	offset 0  header (40 bytes)
//	  [0:8)   magic "GFCOLSNP"
//	  [8:12)  version  uint32 (currently 2; 1 is still read)
//	  [12:16) flags    uint32 (bit 0: sketch sections present,
//	                           bit 1: meta section present)
//	  [16:20) sections uint32 (table entry count)
//	  [20:24) reserved (zero)
//	  [24:32) file size uint64 (truncation detection)
//	  [32:36) CRC-32C of header+table, with this field zeroed
//	  [36:40) reserved (zero)
//	offset 40 section table: sections × 24 bytes
//	  kind uint32 | CRC-32C uint32 | offset uint64 | length uint64
//	payload sections, each at an 8-byte-aligned offset (zero padding
//	between sections), in table order.
//
// Payload sections (kinds):
//
//	manifest    counts, sketch raster, database name
//	meta        opaque caller bytes (the ingest checkpoint state)
//	ids         int64 × users          external user IDs
//	starts      int64 × users+1        region offsets per user (CSR)
//	minx..maxy  float64 × regions      region rectangle columns
//	weight      float64 × regions      region weights
//	norms       float64 × users        Equation 2 norms
//	mbrs        float64 × 4·users      per-user MBR (minx,miny,maxx,maxy)
//	cellstarts  int64 × users+1        sketch cell offsets (CSR)
//	cells       int32 × cells          occupied sketch cell ids
//	cellmass    float32 × cells        sketch Mass blocks
//	cellpeak    float32 × cells        sketch Peak blocks
//	cellroot    float64 × cells        sketch Root blocks
//
// Version 1 differs only in the sketch blocks: cellmass is float64 and
// there is no cellpeak. Open still reads it — rounding each mass up to
// the float32 a version-2 writer would store and leaving Peak nil for
// the loader to derive from the region columns (sketch.FillPeak), so the
// layer a query sees does not depend on the version of the file — and
// EncodeTo always writes version 2, which is how `geomigrate convert`
// upgrades a file. The two float32 blocks take the bytes the float64
// mass took.
//
// The region columns are stored in each footprint's MinX-sorted order
// (the database invariant from PR 1), so the on-disk order IS the
// Algorithm 4 sweep order and the flattened kernels scan the columns
// without any permutation. The reader verifies per-footprint
// sortedness; a violation is corruption, because no writer in this
// repo can produce one.
//
// Integrity contract: every byte of payload is covered by a section
// CRC-32C (Castagnoli — hardware-accelerated on amd64/arm64), the
// header and table by the header CRC, and the recorded file size
// catches truncation before any section is trusted. Open verifies all
// of it on both the mmap and the read path, so a torn, flipped or
// truncated file always fails loudly — never a silent partial load.
//
// Concurrency/mutation contract: the mmap is MAP_PRIVATE with
// PROT_READ|PROT_WRITE, so in-place writes by the loader's owner (a
// builder zeroing a tombstoned norm, say) hit private copy-on-write
// pages, never the file and never a SIGSEGV.
package colstore

import (
	"errors"
	"fmt"
	"hash/crc32"
)

// Magic identifies a columnar snapshot file. Readers outside this
// package use it only to sniff the format (store.Load falls back to
// gob on a mismatch); writers must go through Snapshot.EncodeTo inside
// the store.WriteColumnar seam — the colwrite analyzer enforces that.
const Magic = "GFCOLSNP"

// Version is the format version EncodeTo writes. Version 1 (the initial
// layout, float64 mass and no peak) is still read; any other version
// fails loudly with ErrVersion.
const Version = 2

// Header flag bits.
const (
	flagSketches = 1 << 0
	flagMeta     = 1 << 1
)

// Section kinds. The table records which sections are present; order
// in the table is fixed by the writer but readers index by kind.
const (
	secManifest = iota + 1
	secMeta
	secIDs
	secStarts
	secMinX
	secMinY
	secMaxX
	secMaxY
	secWeight
	secNorms
	secMBRs
	secCellStarts
	secCells
	secCellMass
	secCellRoot
	secCellPeak
	secKindMax = secCellPeak
)

const (
	headerSize     = 40
	tableEntrySize = 24
	// maxSections bounds the table a reader will accept; version 1
	// writes at most secKindMax entries, and a wildly larger count in
	// the header means a corrupt or hostile file.
	maxSections = 64
)

// castagnoli is the CRC-32C table every checksum in the format uses.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrNotColumnar reports that the file does not start with the
// columnar magic — it is some other format (for store.Load, a legacy
// gob snapshot), not a damaged columnar file.
var ErrNotColumnar = errors.New("colstore: not a columnar snapshot (bad magic)")

// ErrCorrupt is wrapped by every integrity failure: bad CRC, impossible
// section geometry, truncation, inconsistent counts, misalignment.
var ErrCorrupt = errors.New("colstore: corrupt snapshot")

// ErrVersion is wrapped when the magic matches but the version is not
// one this reader understands.
var ErrVersion = errors.New("colstore: unsupported snapshot version")

func corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
}

// Snapshot is the in-memory form of one columnar file: dense parallel
// columns in CSR layout. After OpenFS on the mmap path the column
// slices alias the mapping (zero-copy); the Snapshot keeps the mapping
// alive, so holders of the slices must keep the Snapshot (or a value
// referencing it) reachable.
type Snapshot struct {
	Name string

	// Version is the format version the file was read in (EncodeTo
	// always writes Version).
	Version int

	// IDs and Starts define the user axis: user u owns regions
	// [Starts[u], Starts[u+1]) of the region columns.
	IDs    []int64
	Starts []int64

	// Region columns, one value per region, in per-footprint
	// MinX-sorted order.
	MinX, MinY, MaxX, MaxY, Weight []float64

	// Norms and MBRs are per-user: Norms[u] is the Equation 2 norm,
	// MBRs[4u:4u+4] is the footprint MBR (minx,miny,maxx,maxy).
	Norms []float64
	MBRs  []float64

	// Sketch layer (nil CellStarts when absent): user u owns sketch
	// cells [CellStarts[u], CellStarts[u+1]). CellPeak is nil on a
	// snapshot read from a version-1 file, which has no peaks.
	SketchG    int
	Domain     [4]float64
	CellStarts []int64
	Cells      []int32
	CellMass   []float32
	CellPeak   []float32
	CellRoot   []float64

	// Meta is an opaque CRC-guarded blob for the embedder (the ingest
	// checkpoint stores its sequence number and open sessions here).
	Meta []byte

	// src is non-nil when the columns alias a live mmap.
	src *mapping
}

// NumUsers returns the number of users in the snapshot.
func (s *Snapshot) NumUsers() int { return len(s.IDs) }

// NumRegions returns the total region count across all users.
func (s *Snapshot) NumRegions() int { return len(s.MinX) }

// HasSketches reports whether the sketch sections are present.
func (s *Snapshot) HasSketches() bool { return s.CellStarts != nil }

// Close unmaps the backing mapping, if any. After Close every column
// slice of a zero-copy snapshot is invalid; callers that materialised
// or copied out of the snapshot (store.Load does not — it aliases) must
// not Close while those aliases live. Heap-backed snapshots are a
// no-op. Close is idempotent.
func (s *Snapshot) Close() error {
	if s.src == nil {
		return nil
	}
	m := s.src
	s.src = nil
	return m.close()
}
