package traj

import (
	"bytes"
	"math"
	"testing"

	"geofootprint/internal/geom"
)

func TestBinaryRoundTrip(t *testing.T) {
	d := sampleDataset()
	var buf bytes.Buffer
	if err := WriteBinary(&buf, d); err != nil {
		t.Fatalf("WriteBinary: %v", err)
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatalf("ReadBinary: %v", err)
	}
	if got.Name != d.Name || got.SampleInterval != d.SampleInterval {
		t.Errorf("header mismatch: %+v", got)
	}
	if len(got.Users) != len(d.Users) {
		t.Fatalf("user count mismatch")
	}
	for i := range d.Users {
		ua, ub := &d.Users[i], &got.Users[i]
		if ua.ID != ub.ID || len(ua.Sessions) != len(ub.Sessions) {
			t.Fatalf("user %d shape mismatch", i)
		}
		for si := range ua.Sessions {
			sa, sb := ua.Sessions[si], ub.Sessions[si]
			if len(sa) != len(sb) {
				t.Fatalf("session length mismatch")
			}
			for li := range sa {
				if math.Abs(sa[li].P.X-sb[li].P.X) > 1.1/coordScale ||
					math.Abs(sa[li].P.Y-sb[li].P.Y) > 1.1/coordScale {
					t.Fatalf("coordinate drift at user %d session %d sample %d: %v vs %v",
						i, si, li, sa[li].P, sb[li].P)
				}
				if math.Abs(sa[li].T-sb[li].T) > 1.1/timeScale {
					t.Fatalf("time drift: %v vs %v", sa[li].T, sb[li].T)
				}
			}
		}
	}
}

func TestBinaryNoDeltaDrift(t *testing.T) {
	// Deltas are computed between quantized values, so the error per
	// sample stays bounded by the quantum — it must not accumulate
	// along a long session.
	n := 50000
	s := make(Trajectory, n)
	x := 0.0
	for i := range s {
		x += 1.23456789e-5 // irrational-ish step to stress rounding
		s[i] = Location{P: geom.Point{X: x, Y: x / 2}, T: float64(i) * 0.1}
	}
	d := &Dataset{Name: "drift", SampleInterval: 0.1, Users: []User{{ID: 1, Sessions: []Trajectory{s}}}}
	var buf bytes.Buffer
	if err := WriteBinary(&buf, d); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	last := got.Users[0].Sessions[0][n-1]
	if math.Abs(last.P.X-s[n-1].P.X) > 1.0/coordScale {
		t.Errorf("drift after %d samples: %v vs %v", n, last.P.X, s[n-1].P.X)
	}
}

func TestBinarySmallerThanText(t *testing.T) {
	// Regular sampling with small steps: the raison d'être of the
	// delta encoding.
	var s Trajectory
	for i := 0; i < 5000; i++ {
		s = append(s, Location{
			P: geom.Point{X: 0.5 + float64(i%100)*1e-4, Y: 0.5 - float64(i%50)*1e-4},
			T: float64(i) * 0.1,
		})
	}
	d := &Dataset{Name: "size", SampleInterval: 0.1, Users: []User{{ID: 1, Sessions: []Trajectory{s}}}}

	var bin, txt bytes.Buffer
	if err := WriteBinary(&bin, d); err != nil {
		t.Fatal(err)
	}
	if err := WriteText(&txt, d); err != nil {
		t.Fatal(err)
	}
	if bin.Len()*6 > txt.Len() {
		t.Errorf("binary (%d B) not ≥6x smaller than text (%d B)", bin.Len(), txt.Len())
	}
}

func TestReadBinaryErrors(t *testing.T) {
	cases := map[string][]byte{
		"empty":     nil,
		"bad magic": []byte("NOPE1xxxxxxx"),
		"truncated": []byte("GFTB1"),
	}
	for name, data := range cases {
		if _, err := ReadBinary(bytes.NewReader(data)); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	// Valid prefix, truncated body.
	d := sampleDataset()
	var buf bytes.Buffer
	if err := WriteBinary(&buf, d); err != nil {
		t.Fatal(err)
	}
	cut := buf.Bytes()[:buf.Len()/2]
	if _, err := ReadBinary(bytes.NewReader(cut)); err == nil {
		t.Error("truncated body accepted")
	}
}
