package traj

import (
	"bytes"
	"math"
	"path/filepath"
	"strings"
	"testing"

	"geofootprint/internal/geom"
)

func mkTraj(t0, dt float64, pts ...geom.Point) Trajectory {
	tr := make(Trajectory, len(pts))
	for i, p := range pts {
		tr[i] = Location{P: p, T: t0 + float64(i)*dt}
	}
	return tr
}

func sampleDataset() *Dataset {
	return &Dataset{
		Name:           "test",
		SampleInterval: 0.1,
		Users: []User{
			{ID: 1, Sessions: []Trajectory{
				mkTraj(0, 0.1, pt(0.1, 0.1), pt(0.11, 0.1), pt(0.12, 0.11)),
				mkTraj(100, 0.1, pt(0.5, 0.5), pt(0.51, 0.52)),
			}},
			{ID: 7, Sessions: []Trajectory{
				mkTraj(5, 0.1, pt(0.9, 0.2), pt(0.89, 0.21)),
			}},
		},
	}
}

func TestTrajectoryDuration(t *testing.T) {
	tr := mkTraj(2, 0.5, pt(0, 0), pt(1, 1), pt(2, 2))
	if got := tr.Duration(); got != 1.0 {
		t.Errorf("Duration = %v, want 1.0", got)
	}
	if got := (Trajectory{}).Duration(); got != 0 {
		t.Errorf("empty Duration = %v, want 0", got)
	}
	if got := (Trajectory{{T: 5}}).Duration(); got != 0 {
		t.Errorf("single-sample Duration = %v, want 0", got)
	}
}

func TestTrajectoryMBR(t *testing.T) {
	tr := mkTraj(0, 1, pt(0.2, 0.8), pt(0.1, 0.9), pt(0.3, 0.7))
	want := geom.Rect{MinX: 0.1, MinY: 0.7, MaxX: 0.3, MaxY: 0.9}
	if got := tr.MBR(); got != want {
		t.Errorf("MBR = %v, want %v", got, want)
	}
	if !(Trajectory{}).MBR().IsEmpty() {
		t.Error("empty trajectory MBR should be empty")
	}
}

func TestDatasetCounts(t *testing.T) {
	d := sampleDataset()
	if got := d.NumLocations(); got != 7 {
		t.Errorf("NumLocations = %d, want 7", got)
	}
	if got := d.NumSessions(); got != 3 {
		t.Errorf("NumSessions = %d, want 3", got)
	}
}

func datasetsEqual(t *testing.T, a, b *Dataset) {
	t.Helper()
	if a.Name != b.Name {
		t.Fatalf("name mismatch: %q vs %q", a.Name, b.Name)
	}
	if a.SampleInterval != b.SampleInterval {
		t.Fatalf("dt mismatch: %v vs %v", a.SampleInterval, b.SampleInterval)
	}
	if len(a.Users) != len(b.Users) {
		t.Fatalf("user count mismatch: %d vs %d", len(a.Users), len(b.Users))
	}
	for i := range a.Users {
		ua, ub := &a.Users[i], &b.Users[i]
		if ua.ID != ub.ID || len(ua.Sessions) != len(ub.Sessions) {
			t.Fatalf("user %d shape mismatch", i)
		}
		for si := range ua.Sessions {
			sa, sb := ua.Sessions[si], ub.Sessions[si]
			if len(sa) != len(sb) {
				t.Fatalf("user %d session %d length mismatch", i, si)
			}
			for li := range sa {
				if math.Abs(sa[li].T-sb[li].T) > 1e-6 ||
					math.Abs(sa[li].P.X-sb[li].P.X) > 1e-7 ||
					math.Abs(sa[li].P.Y-sb[li].P.Y) > 1e-7 {
					t.Fatalf("user %d session %d sample %d mismatch: %+v vs %+v",
						i, si, li, sa[li], sb[li])
				}
			}
		}
	}
}

func TestTextRoundTrip(t *testing.T) {
	d := sampleDataset()
	var buf bytes.Buffer
	if err := WriteText(&buf, d); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	got, err := ReadText(&buf)
	if err != nil {
		t.Fatalf("ReadText: %v", err)
	}
	datasetsEqual(t, d, got)
}

func TestReadTextUnordered(t *testing.T) {
	// Samples out of order and interleaved across users must be
	// regrouped and sorted.
	input := `# dataset scrambled dt=0.1
2,0,0.2,0.5,0.5
1,0,0.1,0.1,0.2
2,0,0.1,0.4,0.5
1,0,0.0,0.1,0.1
1,1,9.0,0.3,0.3
`
	d, err := ReadText(strings.NewReader(input))
	if err != nil {
		t.Fatalf("ReadText: %v", err)
	}
	if d.Name != "scrambled" || d.SampleInterval != 0.1 {
		t.Errorf("header not parsed: %+v", d)
	}
	if len(d.Users) != 2 || d.Users[0].ID != 1 || d.Users[1].ID != 2 {
		t.Fatalf("users not sorted: %+v", d.Users)
	}
	if len(d.Users[0].Sessions) != 2 {
		t.Fatalf("user 1 should have 2 sessions")
	}
	s := d.Users[0].Sessions[0]
	if s[0].T != 0.0 || s[1].T != 0.1 {
		t.Errorf("samples not time-sorted: %+v", s)
	}
}

func TestReadTextErrors(t *testing.T) {
	tests := []struct {
		name  string
		input string
	}{
		{"wrong field count", "1,0,0.0,0.5\n"},
		{"bad user id", "x,0,0.0,0.5,0.5\n"},
		{"bad session id", "1,y,0.0,0.5,0.5\n"},
		{"bad coordinate", "1,0,0.0,zz,0.5\n"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := ReadText(strings.NewReader(tt.input)); err == nil {
				t.Error("expected error, got nil")
			}
		})
	}
}

func TestGobRoundTrip(t *testing.T) {
	d := sampleDataset()
	path := filepath.Join(t.TempDir(), "ds.gob")
	if err := SaveGob(path, d); err != nil {
		t.Fatalf("SaveGob: %v", err)
	}
	got, err := LoadGob(path)
	if err != nil {
		t.Fatalf("LoadGob: %v", err)
	}
	datasetsEqual(t, d, got)
}

func TestLoadGobMissing(t *testing.T) {
	if _, err := LoadGob(filepath.Join(t.TempDir(), "nope.gob")); err == nil {
		t.Error("expected error for missing file")
	}
}

func pt(x, y float64) geom.Point { return geom.Point{X: x, Y: y} }

func TestSplitSessions(t *testing.T) {
	stream := Trajectory{
		{T: 0}, {T: 0.1}, {T: 0.2}, // session 1
		{T: 100}, {T: 100.1}, // session 2
		{T: 5000}, // session 3
	}
	got := SplitSessions(stream, 1.0)
	if len(got) != 3 {
		t.Fatalf("got %d sessions, want 3", len(got))
	}
	if len(got[0]) != 3 || len(got[1]) != 2 || len(got[2]) != 1 {
		t.Errorf("session lengths = %d,%d,%d", len(got[0]), len(got[1]), len(got[2]))
	}
	// Total samples preserved.
	total := 0
	for _, s := range got {
		total += len(s)
	}
	if total != len(stream) {
		t.Errorf("samples lost: %d vs %d", total, len(stream))
	}
	// No split when gaps stay under the threshold.
	if got := SplitSessions(stream[:3], 1.0); len(got) != 1 {
		t.Errorf("contiguous stream split into %d sessions", len(got))
	}
	if got := SplitSessions(nil, 1.0); got != nil {
		t.Errorf("nil stream returned %v", got)
	}
	// The derived sessions are non-empty and temporally disjoint.
	for i, s := range got {
		if len(s) == 0 || i > 0 && got[i-1][len(got[i-1])-1].T >= s[0].T {
			t.Errorf("session %d is empty or overlaps the one before", i)
		}
	}
}
