package search

import "testing"

// The candidate filter is the one extra step a segment query runs per
// candidate; it compacts in place and must never allocate.
func TestRestrictFilterZeroAllocs(t *testing.T) {
	segOf := make([]uint16, 4800)
	for u := range segOf {
		segOf[u] = uint16(u % 12)
	}
	in := &Restrict{SegOf: segOf, Lo: 3, Hi: 6}
	cands := make([]int, len(segOf))
	var kept int
	if avg := testing.AllocsPerRun(100, func() {
		for u := range cands {
			cands[u] = u
		}
		kept = len(in.filter(cands))
	}); avg != 0 {
		t.Fatalf("Restrict.filter allocates: %v allocs/run", avg)
	}
	if want := len(segOf) / 12 * 3; kept != want {
		t.Fatalf("kept %d candidates, want %d", kept, want)
	}
	var none *Restrict
	if got := none.filter(cands); len(got) != len(cands) {
		t.Fatalf("nil restriction dropped candidates: %d of %d", len(got), len(cands))
	}
}

func TestShardWorkersBounds(t *testing.T) {
	if w := shardWorkers(8, 10); w != 1 {
		t.Errorf("shardWorkers(8, 10) = %d, want 1 (below minShard)", w)
	}
	if w := shardWorkers(8, 8*minShard*10); w != 8 {
		t.Errorf("shardWorkers(8, big) = %d, want the pool size 8", w)
	}
	if w := shardWorkers(0, 8*minShard*10); w != 1 {
		t.Errorf("shardWorkers(0, big) = %d, want 1 (the calling goroutine)", w)
	}
}
