package rtree

import (
	"sort"
	"testing"

	"geofootprint/internal/geom"
)

// FuzzTreeOps drives an R-tree with a byte-coded operation sequence
// (insert / STR bulk reload / search) and cross-checks every state
// against a linear model plus the structural validator. A bulk op
// rebuilds the tree from the model's entries with Bulk — the STR load
// behind every epoch's index — at a fanout the op's bytes pick, and
// later inserts split its packed nodes. Shared coordinates are forced
// by deriving geometry from small byte values.
func FuzzTreeOps(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Add([]byte{10, 200, 30, 44, 0, 0, 0, 1, 2, 250})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 512 {
			ops = ops[:512]
		}
		tr := New(4) // small fanout: splits happen fast
		var live []Entry
		for i := 0; i+2 < len(ops); i += 3 {
			op, a, b := ops[i], ops[i+1], ops[i+2]
			x, y := float64(a%16), float64(b%16)
			w, h := float64(op%4)+0.5, float64((op/4)%4)+0.5
			r := geom.Rect{MinX: x, MinY: y, MaxX: x + w, MaxY: y + h}
			switch op % 3 {
			case 0: // insert
				tr.Insert(r, int64(len(live)))
				live = append(live, Entry{Rect: r, Data: int64(len(live))})
			case 1: // reload the model's entries with STR packing
				tr = Bulk(live, 2+int(b%7))
				if err := tr.Validate(); err != nil {
					t.Fatalf("Validate after Bulk of %d entries: %v", len(live), err)
				}
			default: // search and compare with the model
				q := geom.Rect{MinX: x - 2, MinY: y - 2, MaxX: x + 3, MaxY: y + 3}
				var got []int64
				tr.Search(q, func(e Entry) bool {
					got = append(got, e.Data)
					return true
				})
				var want []int64
				for _, v := range live {
					if v.Rect.Intersects(q) {
						want = append(want, v.Data)
					}
				}
				sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
				if len(got) != len(want) {
					t.Fatalf("search: %d hits, want %d", len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("search hit %d: %d, want %d", i, got[i], want[i])
					}
				}
			}
			if tr.Len() != len(live) {
				t.Fatalf("Len %d, model %d", tr.Len(), len(live))
			}
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("Validate: %v", err)
		}
	})
}
