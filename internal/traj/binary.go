package traj

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"geofootprint/internal/geom"
)

// Binary format "GFTB1": a compact columnar encoding for large
// tracking datasets. Coordinates quantize to 1e-7 of the normalized
// space (~10 µm in a 100 m hall) and timestamps to 0.1 ms; consecutive
// samples store zigzag-varint deltas, which are tiny for regularly
// sampled, slowly moving trackers. Datasets typically shrink 8-12×
// versus text (see the benchmarks).
//
// The quantization makes the format lossy below the stated precision,
// far beneath sensor noise. The text format is quantised too (%.6f
// seconds, %.8f coordinates), so no dataset on disk round-trips bit
// for bit.

const (
	binaryMagic = "GFTB1"
	coordScale  = 1e7 // 1e-7 normalized units
	timeScale   = 1e4 // 0.1 ms
)

// WriteBinary writes the dataset in the GFTB1 format.
func WriteBinary(w io.Writer, d *Dataset) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(binaryMagic); err != nil {
		return err
	}
	var scratch [binary.MaxVarintLen64]byte
	putUvarint := func(v uint64) error {
		n := binary.PutUvarint(scratch[:], v)
		_, err := bw.Write(scratch[:n])
		return err
	}
	putVarint := func(v int64) error {
		n := binary.PutVarint(scratch[:], v)
		_, err := bw.Write(scratch[:n])
		return err
	}

	if err := putUvarint(uint64(len(d.Name))); err != nil {
		return err
	}
	if _, err := bw.WriteString(d.Name); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, d.SampleInterval); err != nil {
		return err
	}
	if err := putUvarint(uint64(len(d.Users))); err != nil {
		return err
	}
	for i := range d.Users {
		u := &d.Users[i]
		if err := putVarint(int64(u.ID)); err != nil {
			return err
		}
		if err := putUvarint(uint64(len(u.Sessions))); err != nil {
			return err
		}
		for _, s := range u.Sessions {
			if err := putUvarint(uint64(len(s))); err != nil {
				return err
			}
			var px, py, pt int64
			for li, l := range s {
				x := quant(l.P.X, coordScale)
				y := quant(l.P.Y, coordScale)
				tt := quant(l.T, timeScale)
				if li == 0 {
					if err := putVarint(x); err != nil {
						return err
					}
					if err := putVarint(y); err != nil {
						return err
					}
					if err := putVarint(tt); err != nil {
						return err
					}
				} else {
					if err := putVarint(x - px); err != nil {
						return err
					}
					if err := putVarint(y - py); err != nil {
						return err
					}
					if err := putVarint(tt - pt); err != nil {
						return err
					}
				}
				px, py, pt = x, y, tt
			}
		}
	}
	return bw.Flush()
}

// ReadBinary reads a dataset written by WriteBinary.
func ReadBinary(r io.Reader) (*Dataset, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(binaryMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("traj: reading magic: %w", err)
	}
	if string(magic) != binaryMagic {
		return nil, fmt.Errorf("traj: bad magic %q (want %q)", magic, binaryMagic)
	}
	nameLen, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	if nameLen > 1<<20 {
		return nil, fmt.Errorf("traj: implausible name length %d", nameLen)
	}
	name := make([]byte, nameLen)
	if _, err := io.ReadFull(br, name); err != nil {
		return nil, err
	}
	d := &Dataset{Name: string(name)}
	if err := binary.Read(br, binary.LittleEndian, &d.SampleInterval); err != nil {
		return nil, err
	}
	nUsers, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	if nUsers > 1<<32 {
		return nil, fmt.Errorf("traj: implausible user count %d", nUsers)
	}
	d.Users = make([]User, 0, capHint(nUsers))
	for ui := uint64(0); ui < nUsers; ui++ {
		id, err := binary.ReadVarint(br)
		if err != nil {
			return nil, err
		}
		nSessions, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, err
		}
		u := User{ID: int(id), Sessions: make([]Trajectory, 0, capHint(nSessions))}
		for si := uint64(0); si < nSessions; si++ {
			nSamples, err := binary.ReadUvarint(br)
			if err != nil {
				return nil, err
			}
			s := make(Trajectory, 0, capHint(nSamples))
			var px, py, pt int64
			for li := uint64(0); li < nSamples; li++ {
				dx, err := binary.ReadVarint(br)
				if err != nil {
					return nil, err
				}
				dy, err := binary.ReadVarint(br)
				if err != nil {
					return nil, err
				}
				dt, err := binary.ReadVarint(br)
				if err != nil {
					return nil, err
				}
				// The first sample is absolute; deltas accumulate
				// from zero-initialised px/py/pt, so the same
				// addition covers both cases.
				px, py, pt = px+dx, py+dy, pt+dt
				s = append(s, Location{
					P: geom.Point{X: float64(px) / coordScale, Y: float64(py) / coordScale},
					T: float64(pt) / timeScale,
				})
			}
			u.Sessions = append(u.Sessions, s)
		}
		d.Users = append(d.Users, u)
	}
	return d, nil
}

func quant(v, scale float64) int64 {
	return int64(math.Round(v * scale))
}

// capHint bounds pre-allocation from untrusted length fields: the
// slices still grow to any genuine size via append, but a corrupt or
// hostile header cannot make the reader allocate gigabytes up front.
func capHint(n uint64) int {
	const max = 1 << 16
	if n > max {
		return max
	}
	return int(n)
}
