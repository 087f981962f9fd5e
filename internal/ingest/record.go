package ingest

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"geofootprint/internal/core"
	"geofootprint/internal/geom"
	"geofootprint/internal/traj"
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

// stateMagic opens a checkpoint meta blob. Older releases wrote the
// meta as a gob stream, whose first message defines a type and so
// carries a negative type ID after its length byte; the 'F' here would
// be the positive ID 35.
const stateMagic = "GFC1"

// Wire sizes of a checkpoint meta blob: the header (magic, Seq and a
// uint32 session count), a session's fixed part (int64 User, float64
// LastT, a HasT byte and a uint32 pending count) and one pending
// sample (X, Y and T as float64s).
const (
	stateHeaderSize   = len(stateMagic) + 8 + 4
	sessionHeaderSize = 8 + 8 + 1 + 4
	pendingWireSize   = 3 * 8
)

// ErrLegacyMeta reports checkpoint meta that lacks the typed codec's
// magic: the gob-encoded meta of an older release.
var ErrLegacyMeta = errors.New("ingest: checkpoint meta predates the typed codec; rewrite the snapshot with `geomigrate convert`")

// EncodeState appends the checkpoint meta blob of s to buf and returns
// the extended slice, little endian: the magic, Seq and the session
// count, then per session User, LastT, HasT (0 or 1) and the count and
// (x, y, t) of its pending samples.
func EncodeState(buf []byte, s State) []byte {
	buf = append(buf, stateMagic...)
	buf = binary.LittleEndian.AppendUint64(buf, s.Seq)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s.Sessions)))
	for _, ss := range s.Sessions {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(int64(ss.User)))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(ss.LastT))
		hasT := byte(0)
		if ss.HasT {
			hasT = 1
		}
		buf = append(buf, hasT)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(ss.Pending)))
		for _, l := range ss.Pending {
			for _, v := range [...]float64{l.P.X, l.P.Y, l.T} {
				buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
			}
		}
	}
	return buf
}

// DecodeState parses a blob written by EncodeState. A blob without the
// magic is ErrLegacyMeta. Any other blob that is not exactly one
// encoding — a short one, trailing bytes, a HasT other than 0 or 1 — is
// an error. Lengths are checked before anything is allocated.
func DecodeState(blob []byte) (State, error) {
	if len(blob) < len(stateMagic) || string(blob[:len(stateMagic)]) != stateMagic {
		return State{}, ErrLegacyMeta
	}
	if len(blob) < stateHeaderSize {
		return State{}, fmt.Errorf("ingest: checkpoint meta of %d bytes has no header", len(blob))
	}
	u64 := func(b []byte, i int) uint64 { return binary.LittleEndian.Uint64(b[8*i:]) }
	f64 := func(b []byte, i int) float64 { return math.Float64frombits(u64(b, i)) }
	s := State{Seq: u64(blob[len(stateMagic):], 0)}
	n := uint64(binary.LittleEndian.Uint32(blob[len(stateMagic)+8:]))
	rest := blob[stateHeaderSize:]
	if n*sessionHeaderSize > uint64(len(rest)) {
		return State{}, fmt.Errorf("ingest: checkpoint meta of %d bytes for %d sessions", len(blob), n)
	}
	s.Sessions = make([]SessionState, n)
	for i := range s.Sessions {
		if len(rest) < sessionHeaderSize {
			return State{}, fmt.Errorf("ingest: checkpoint meta truncated in session %d", i)
		}
		if rest[16] > 1 {
			return State{}, fmt.Errorf("ingest: checkpoint meta session %d has HasT byte %d", i, rest[16])
		}
		m := uint64(binary.LittleEndian.Uint32(rest[17:]))
		ss := &s.Sessions[i]
		*ss = SessionState{User: int(int64(u64(rest, 0))), LastT: f64(rest, 1), HasT: rest[16] == 1}
		rest = rest[sessionHeaderSize:]
		if m*pendingWireSize > uint64(len(rest)) {
			return State{}, fmt.Errorf("ingest: checkpoint meta session %d has %d bytes for %d pending samples", i, len(rest), m)
		}
		ss.Pending = make([]traj.Location, m)
		for j := range ss.Pending {
			ss.Pending[j] = traj.Location{P: geom.Point{X: f64(rest, 3*j), Y: f64(rest, 3*j+1)}, T: f64(rest, 3*j+2)}
		}
		rest = rest[m*pendingWireSize:]
	}
	if len(rest) != 0 {
		return State{}, fmt.Errorf("ingest: checkpoint meta with %d trailing bytes", len(rest))
	}
	return s, nil
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
