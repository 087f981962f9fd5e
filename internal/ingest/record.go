package ingest

import (
	"encoding/binary"
	"fmt"
	"math"

	"geofootprint/internal/core"
	"geofootprint/internal/geom"
)

// Record is one WAL record, decoded: a sample batch (Samples non-empty)
// or an edit of one user's footprint (Edit, whose Op is OpUpsert or
// OpRemove). The database is a pure function of the record sequence.
type Record struct {
	Samples []Sample
	Edit    UserRoIs
}

// Op says what a UserRoIs does to its user's footprint. The upsert and
// remove values are also the kind byte of an edit record on disk.
type Op uint8

const (
	// OpAppend (the zero value) appends RoIs, converted under the
	// sink's weighting.
	OpAppend Op = iota
	// OpUpsert replaces the footprint with Regions.
	OpUpsert
	// OpRemove empties the footprint (a tombstone: the user keeps its
	// dense index).
	OpRemove
)

// regionWireSize is the binary size of one upsert region: MinX, MinY,
// MaxX, MaxY and Weight as float64s.
const regionWireSize = 5 * 8

// appendRecord appends rec's WAL payload to buf. A sample batch is
// EncodeBatch's payload, byte for byte: a uint32 count of at least one,
// then the samples. An edit starts with a count of 0 — no batch is
// empty (IngestCtx refuses one), so a log written before edits existed
// replays unchanged — then the Op byte and the int64 user; an upsert
// adds a uint32 region count and the regions.
func appendRecord(buf []byte, rec Record) []byte {
	if len(rec.Samples) > 0 {
		return EncodeBatch(buf, rec.Samples)
	}
	e := rec.Edit
	buf = binary.LittleEndian.AppendUint32(buf, 0)
	buf = append(buf, byte(e.Op))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(int64(e.User)))
	if e.Op != OpUpsert {
		return buf
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(e.Regions)))
	for _, r := range e.Regions {
		for _, v := range [...]float64{r.Rect.MinX, r.Rect.MinY, r.Rect.MaxX, r.Rect.MaxY, r.Weight} {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
		}
	}
	return buf
}

// DecodeRecord parses a WAL payload written by appendRecord. The WAL's
// CRC already vouches for integrity, so a payload that is not exactly
// one record of a known kind indicates a version mismatch and is an
// error. Lengths are checked before anything is allocated.
func DecodeRecord(payload []byte) (Record, error) {
	if len(payload) < 4 {
		return Record{}, fmt.Errorf("ingest: record payload of %d bytes has no count", len(payload))
	}
	if binary.LittleEndian.Uint32(payload) != 0 {
		samples, err := decodeBatch(payload)
		return Record{Samples: samples}, err
	}
	const editHeader = 4 + 1 + 8
	if len(payload) < editHeader {
		return Record{}, fmt.Errorf("ingest: edit record of %d bytes", len(payload))
	}
	e := UserRoIs{Op: Op(payload[4]), User: int(int64(binary.LittleEndian.Uint64(payload[5:])))}
	rest := payload[editHeader:]
	switch e.Op {
	case OpRemove:
		if len(rest) != 0 {
			return Record{}, fmt.Errorf("ingest: remove record with %d trailing bytes", len(rest))
		}
	case OpUpsert:
		if len(rest) < 4 {
			return Record{}, fmt.Errorf("ingest: upsert record of %d bytes has no region count", len(payload))
		}
		n := int(binary.LittleEndian.Uint32(rest))
		rest = rest[4:]
		if len(rest) != n*regionWireSize {
			return Record{}, fmt.Errorf("ingest: upsert record with %d region bytes for %d regions", len(rest), n)
		}
		e.Regions = make(core.Footprint, n)
		for i := range e.Regions {
			var v [5]float64
			for j := range v {
				v[j] = math.Float64frombits(binary.LittleEndian.Uint64(rest[(5*i+j)*8:]))
			}
			e.Regions[i] = core.Region{Rect: geom.Rect{MinX: v[0], MinY: v[1], MaxX: v[2], MaxY: v[3]}, Weight: v[4]}
		}
	default:
		return Record{}, fmt.Errorf("ingest: edit record of unknown kind %d", e.Op)
	}
	return Record{Edit: e}, nil
}

// Writer is what a sink applies updates to: a FootprintDB, or the
// serving layer's EpochBuilder.
type Writer interface {
	AppendRoIs(id int, regions []core.Region) int
	Upsert(id int, f core.Footprint) int
	Remove(id int) bool
}

// ApplyTo performs u on w, converting appended RoIs under weighting.
func (u UserRoIs) ApplyTo(w Writer, weighting core.Weighting) {
	switch u.Op {
	case OpAppend:
		w.AppendRoIs(u.User, core.FromRoIs(u.RoIs, weighting))
	case OpUpsert:
		w.Upsert(u.User, u.Regions)
	case OpRemove:
		w.Remove(u.User)
	}
}
