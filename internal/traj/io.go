package traj

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"

	"geofootprint/internal/geom"
)

// The text format mirrors the shape of the published ATC shopping
// center exports: one sample per line,
//
//	userID,sessionID,time,x,y
//
// with '#' comment lines permitted. Samples may appear in any order;
// the reader groups them per (user, session) and sorts by time.

// WriteText writes the dataset in the CSV-like text format.
func WriteText(w io.Writer, d *Dataset) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# dataset %s dt=%g\n", d.Name, d.SampleInterval)
	fmt.Fprintln(bw, "# userID,sessionID,time,x,y")
	for i := range d.Users {
		u := &d.Users[i]
		for si, s := range u.Sessions {
			for _, l := range s {
				fmt.Fprintf(bw, "%d,%d,%.6f,%.8f,%.8f\n", u.ID, si, l.T, l.P.X, l.P.Y)
			}
		}
	}
	return bw.Flush()
}

// ReadText parses the CSV-like text format produced by WriteText. The
// sample interval dt is recovered from the header comment when present,
// otherwise it must be supplied by the caller afterwards.
func ReadText(r io.Reader) (*Dataset, error) {
	type key struct{ user, session int }
	sessions := make(map[key]Trajectory)
	d := &Dataset{}

	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			parseHeader(line, d)
			continue
		}
		parts := strings.Split(line, ",")
		if len(parts) != 5 {
			return nil, fmt.Errorf("traj: line %d: want 5 fields, got %d", lineNo, len(parts))
		}
		uid, err := strconv.Atoi(strings.TrimSpace(parts[0]))
		if err != nil {
			return nil, fmt.Errorf("traj: line %d: bad user ID: %w", lineNo, err)
		}
		sid, err := strconv.Atoi(strings.TrimSpace(parts[1]))
		if err != nil {
			return nil, fmt.Errorf("traj: line %d: bad session ID: %w", lineNo, err)
		}
		var vals [3]float64
		for i, p := range parts[2:] {
			vals[i], err = strconv.ParseFloat(strings.TrimSpace(p), 64)
			if err != nil {
				return nil, fmt.Errorf("traj: line %d: bad number %q: %w", lineNo, p, err)
			}
		}
		k := key{uid, sid}
		sessions[k] = append(sessions[k], Location{
			T: vals[0],
			P: geom.Point{X: vals[1], Y: vals[2]},
		})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}

	// Group per user, order sessions by session ID, samples by time.
	byUser := make(map[int][]key)
	for k := range sessions {
		byUser[k.user] = append(byUser[k.user], k)
	}
	userIDs := make([]int, 0, len(byUser))
	for uid := range byUser {
		userIDs = append(userIDs, uid)
	}
	sort.Ints(userIDs)
	d.Users = make([]User, 0, len(userIDs))
	for _, uid := range userIDs {
		keys := byUser[uid]
		sort.Slice(keys, func(i, j int) bool { return keys[i].session < keys[j].session })
		u := User{ID: uid, Sessions: make([]Trajectory, 0, len(keys))}
		for _, k := range keys {
			s := sessions[k]
			sort.Slice(s, func(i, j int) bool { return s[i].T < s[j].T })
			u.Sessions = append(u.Sessions, s)
		}
		d.Users = append(d.Users, u)
	}
	return d, nil
}

func parseHeader(line string, d *Dataset) {
	fields := strings.Fields(strings.TrimPrefix(line, "#"))
	for i, f := range fields {
		switch {
		case f == "dataset" && i+1 < len(fields):
			d.Name = fields[i+1]
		case strings.HasPrefix(f, "dt="):
			if v, err := strconv.ParseFloat(f[3:], 64); err == nil {
				d.SampleInterval = v
			}
		}
	}
}

// LoadAuto reads a dataset from path, detecting the format: the GFTB1
// magic selects the delta-varint binary format, anything else is read
// as text. The two cannot be confused: a text file starts with a '#'
// comment or a number, never with the magic's 'G'. This is what the
// CLI tools use, so users never have to name the format.
func LoadAuto(path string) (*Dataset, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(data) >= len(binaryMagic) && string(data[:len(binaryMagic)]) == binaryMagic {
		return ReadBinary(bytes.NewReader(data))
	}
	ds, err := ReadText(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("traj: %s matches no known dataset format: %w", path, err)
	}
	if len(ds.Users) == 0 {
		// ReadText accepts arbitrary comment-only garbage; an empty
		// result from a non-empty file means the file was not text.
		return nil, fmt.Errorf("traj: %s matches no known dataset format", path)
	}
	return ds, nil
}
