package colstore

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
)

// section is one table entry plus its payload during encoding.
type section struct {
	kind   uint32
	crc    uint32
	offset uint64
	data   []byte
}

// EncodeTo writes the snapshot in columnar file form to w. It is the
// single serialisation point of the format; persistence callers must
// not invoke it on a raw file — the crash-atomic seam is
// store.WriteColumnarFS (temp file + fsync + rename + dir fsync), and
// the colwrite analyzer flags any other use on a persistence path.
// The ingest checkpoint and store.Save both go through that seam.
func (s *Snapshot) EncodeTo(w io.Writer) error {
	if err := s.checkShape(); err != nil {
		return err
	}
	var flags uint32
	secs := []section{
		{kind: secManifest, data: s.encodeManifest()},
	}
	if s.Meta != nil {
		flags |= flagMeta
		secs = append(secs, section{kind: secMeta, data: s.Meta})
	}
	secs = append(secs,
		section{kind: secIDs, data: int64Bytes(s.IDs)},
		section{kind: secStarts, data: int64Bytes(s.Starts)},
		section{kind: secMinX, data: float64Bytes(s.MinX)},
		section{kind: secMinY, data: float64Bytes(s.MinY)},
		section{kind: secMaxX, data: float64Bytes(s.MaxX)},
		section{kind: secMaxY, data: float64Bytes(s.MaxY)},
		section{kind: secWeight, data: float64Bytes(s.Weight)},
		section{kind: secNorms, data: float64Bytes(s.Norms)},
		section{kind: secMBRs, data: float64Bytes(s.MBRs)},
	)
	if s.HasSketches() {
		flags |= flagSketches
		secs = append(secs,
			section{kind: secCellStarts, data: int64Bytes(s.CellStarts)},
			section{kind: secCells, data: int32Bytes(s.Cells)},
			section{kind: secCellMass, data: float32Bytes(s.CellMass)},
			section{kind: secCellPeak, data: float32Bytes(s.CellPeak)},
			section{kind: secCellRoot, data: float64Bytes(s.CellRoot)},
		)
	}

	// Lay out: sections start 8-aligned after the table, in order.
	off := uint64(headerSize + tableEntrySize*len(secs))
	for i := range secs {
		off = align8(off)
		secs[i].offset = off
		secs[i].crc = crc32.Checksum(secs[i].data, castagnoli)
		off += uint64(len(secs[i].data))
	}
	fileSize := off

	// Header + table, with the header CRC over both (CRC field zeroed).
	hdr := make([]byte, headerSize+tableEntrySize*len(secs))
	copy(hdr[0:8], Magic)
	binary.LittleEndian.PutUint32(hdr[8:12], Version)
	binary.LittleEndian.PutUint32(hdr[12:16], flags)
	binary.LittleEndian.PutUint32(hdr[16:20], uint32(len(secs)))
	binary.LittleEndian.PutUint64(hdr[24:32], fileSize)
	for i, sec := range secs {
		e := hdr[headerSize+i*tableEntrySize:]
		binary.LittleEndian.PutUint32(e[0:4], sec.kind)
		binary.LittleEndian.PutUint32(e[4:8], sec.crc)
		binary.LittleEndian.PutUint64(e[8:16], sec.offset)
		binary.LittleEndian.PutUint64(e[16:24], uint64(len(sec.data)))
	}
	binary.LittleEndian.PutUint32(hdr[32:36], crc32.Checksum(hdr, castagnoli))

	if _, err := w.Write(hdr); err != nil {
		return err
	}
	var pad [8]byte
	pos := uint64(len(hdr))
	for _, sec := range secs {
		if n := sec.offset - pos; n > 0 {
			if _, err := w.Write(pad[:n]); err != nil {
				return err
			}
			pos += n
		}
		if len(sec.data) > 0 {
			if _, err := w.Write(sec.data); err != nil {
				return err
			}
			pos += uint64(len(sec.data))
		}
	}
	return nil
}

// checkShape validates the parallel-slice geometry before anything is
// written, so a programming error can never produce a plausible file.
func (s *Snapshot) checkShape() error {
	users, regions := len(s.IDs), len(s.MinX)
	if len(s.Starts) != users+1 {
		return fmt.Errorf("colstore: encode: %d starts for %d users", len(s.Starts), users)
	}
	if len(s.MinY) != regions || len(s.MaxX) != regions || len(s.MaxY) != regions || len(s.Weight) != regions {
		return fmt.Errorf("colstore: encode: ragged region columns")
	}
	if len(s.Norms) != users || len(s.MBRs) != 4*users {
		return fmt.Errorf("colstore: encode: %d norms, %d mbr values for %d users",
			len(s.Norms), len(s.MBRs), users)
	}
	if users > 0 && (s.Starts[0] != 0 || s.Starts[users] != int64(regions)) {
		return fmt.Errorf("colstore: encode: starts span [%d,%d), want [0,%d)",
			s.Starts[0], s.Starts[users], regions)
	}
	for u := 1; u < len(s.Starts); u++ {
		if s.Starts[u] < s.Starts[u-1] {
			return fmt.Errorf("colstore: encode: starts decrease at user %d", u-1)
		}
	}
	if s.HasSketches() {
		cells := len(s.Cells)
		if len(s.CellStarts) != users+1 {
			return fmt.Errorf("colstore: encode: %d cell starts for %d users", len(s.CellStarts), users)
		}
		if len(s.CellMass) != cells || len(s.CellPeak) != cells || len(s.CellRoot) != cells {
			return fmt.Errorf("colstore: encode: ragged sketch columns")
		}
		if users > 0 && (s.CellStarts[0] != 0 || s.CellStarts[users] != int64(cells)) {
			return fmt.Errorf("colstore: encode: cell starts span [%d,%d), want [0,%d)",
				s.CellStarts[0], s.CellStarts[users], cells)
		}
	}
	return nil
}

// encodeManifest serialises the fixed-size counts plus the name:
// users u64 | regions u64 | cells u64 | sketchG u32 | reserved u32 |
// domain 4×f64 | nameLen u32 | name bytes.
func (s *Snapshot) encodeManifest() []byte {
	name := []byte(s.Name)
	b := make([]byte, 8+8+8+4+4+32+4+len(name))
	binary.LittleEndian.PutUint64(b[0:8], uint64(len(s.IDs)))
	binary.LittleEndian.PutUint64(b[8:16], uint64(len(s.MinX)))
	binary.LittleEndian.PutUint64(b[16:24], uint64(len(s.Cells)))
	binary.LittleEndian.PutUint32(b[24:28], uint32(s.SketchG))
	for i, v := range s.Domain {
		binary.LittleEndian.PutUint64(b[32+8*i:], float64bits(v))
	}
	binary.LittleEndian.PutUint32(b[64:68], uint32(len(name)))
	copy(b[68:], name)
	return b
}

func align8(v uint64) uint64 { return (v + 7) &^ 7 }
