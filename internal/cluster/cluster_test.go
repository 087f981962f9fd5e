package cluster

import (
	"math"
	"math/rand"
	"testing"

	"geofootprint/internal/core"
	"geofootprint/internal/geom"
	"geofootprint/internal/store"
)

// naiveAgglomerative is the O(N³) greedy reference: repeatedly merge
// the pair of clusters with the smallest linkage distance until k
// remain.
func naiveAgglomerative(m *Matrix, k int, link Linkage) []int {
	n := m.N()
	// Copy distances into a full matrix of cluster-member lists.
	members := make([][]int, n)
	for i := range members {
		members[i] = []int{i}
	}
	dist := make([][]float64, n)
	for i := range dist {
		dist[i] = make([]float64, n)
		for j := range dist[i] {
			dist[i][j] = m.At(i, j)
		}
	}
	active := make([]bool, n)
	for i := range active {
		active[i] = true
	}
	clusters := n
	for clusters > k {
		bi, bj := -1, -1
		best := math.Inf(1)
		for i := 0; i < n; i++ {
			if !active[i] {
				continue
			}
			for j := i + 1; j < n; j++ {
				if !active[j] {
					continue
				}
				if dist[i][j] < best {
					best, bi, bj = dist[i][j], i, j
				}
			}
		}
		na, nb := float64(len(members[bi])), float64(len(members[bj]))
		for t := 0; t < n; t++ {
			if !active[t] || t == bi || t == bj {
				continue
			}
			var d float64
			switch link {
			case SingleLink:
				d = math.Min(dist[bi][t], dist[bj][t])
			case CompleteLink:
				d = math.Max(dist[bi][t], dist[bj][t])
			default:
				d = (na*dist[bi][t] + nb*dist[bj][t]) / (na + nb)
			}
			dist[bi][t], dist[t][bi] = d, d
		}
		members[bi] = append(members[bi], members[bj]...)
		active[bj] = false
		clusters--
	}
	labels := make([]int, n)
	next := 0
	for i := 0; i < n; i++ {
		if !active[i] {
			continue
		}
		for _, mem := range members[i] {
			labels[mem] = next
		}
		next++
	}
	return labels
}

// samePartition reports whether two labelings induce the same
// partition (up to label renaming).
func samePartition(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	fwd := map[int]int{}
	rev := map[int]int{}
	for i := range a {
		if m, ok := fwd[a[i]]; ok && m != b[i] {
			return false
		}
		if m, ok := rev[b[i]]; ok && m != a[i] {
			return false
		}
		fwd[a[i]] = b[i]
		rev[b[i]] = a[i]
	}
	return true
}

func randMatrix(rng *rand.Rand, n int) *Matrix {
	m := NewMatrix(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			m.Set(i, j, rng.Float64())
		}
	}
	return m
}

func cloneMatrix(m *Matrix) *Matrix {
	c := NewMatrix(m.n)
	copy(c.d, m.d)
	return c
}

func TestMatrixIndexing(t *testing.T) {
	m := NewMatrix(5)
	v := 0.0
	for i := 0; i < 5; i++ {
		for j := i + 1; j < 5; j++ {
			v += 1
			m.Set(i, j, v)
		}
	}
	v = 0.0
	for i := 0; i < 5; i++ {
		for j := i + 1; j < 5; j++ {
			v += 1
			if m.At(i, j) != v || m.At(j, i) != v {
				t.Fatalf("At(%d,%d) = %v, want %v", i, j, m.At(i, j), v)
			}
		}
	}
	if m.At(3, 3) != 0 {
		t.Error("diagonal should be 0")
	}
	if m.N() != 5 {
		t.Error("N() wrong")
	}
}

func TestAgglomerativeTwoBlobs(t *testing.T) {
	// Items 0-4 close together, 5-9 close together, far apart across.
	m := NewMatrix(10)
	for i := 0; i < 10; i++ {
		for j := i + 1; j < 10; j++ {
			if (i < 5) == (j < 5) {
				m.Set(i, j, 0.1)
			} else {
				m.Set(i, j, 0.9)
			}
		}
	}
	labels, err := Agglomerative(m, 2, AverageLink)
	if err != nil {
		t.Fatalf("Agglomerative: %v", err)
	}
	want := []int{0, 0, 0, 0, 0, 1, 1, 1, 1, 1}
	if !samePartition(labels, want) {
		t.Errorf("labels = %v, want two blobs", labels)
	}
}

func TestAgglomerativeMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(60))
	for _, link := range []Linkage{AverageLink, SingleLink, CompleteLink} {
		for trial := 0; trial < 25; trial++ {
			n := 2 + rng.Intn(50)
			k := 1 + rng.Intn(n)
			m := randMatrix(rng, n)
			want := naiveAgglomerative(cloneMatrix(m), k, link)
			got, err := Agglomerative(m, k, link)
			if err != nil {
				t.Fatalf("Agglomerative: %v", err)
			}
			if !samePartition(got, want) {
				t.Fatalf("link=%v n=%d k=%d: NN-chain partition differs from naive\ngot:  %v\nwant: %v",
					link, n, k, got, want)
			}
		}
	}
}

func TestAgglomerativeEdgeCases(t *testing.T) {
	// k == n: everyone their own cluster.
	m := randMatrix(rand.New(rand.NewSource(1)), 6)
	labels, err := Agglomerative(cloneMatrix(m), 6, AverageLink)
	if err != nil {
		t.Fatalf("k=n: %v", err)
	}
	seen := map[int]bool{}
	for _, l := range labels {
		seen[l] = true
	}
	if len(seen) != 6 {
		t.Errorf("k=n should give n singleton clusters, got %v", labels)
	}
	// k == 1: one cluster.
	labels, err = Agglomerative(cloneMatrix(m), 1, AverageLink)
	if err != nil {
		t.Fatalf("k=1: %v", err)
	}
	for _, l := range labels {
		if l != 0 {
			t.Errorf("k=1 labels = %v", labels)
		}
	}
	// Bad k.
	if _, err := Agglomerative(cloneMatrix(m), 0, AverageLink); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := Agglomerative(cloneMatrix(m), 7, AverageLink); err == nil {
		t.Error("k>n accepted")
	}
	// Empty matrix.
	labels, err = Agglomerative(NewMatrix(0), 1, AverageLink)
	if err == nil && labels != nil {
		t.Error("empty matrix should return nil labels")
	}
}

func TestAgglomerativeFullMergeHistory(t *testing.T) {
	m := randMatrix(rand.New(rand.NewSource(2)), 20)
	labels, merges, err := AgglomerativeFull(m, 4, AverageLink)
	if err != nil {
		t.Fatalf("AgglomerativeFull: %v", err)
	}
	if len(merges) != 19 {
		t.Errorf("got %d merges, want 19", len(merges))
	}
	if len(labels) != 20 {
		t.Errorf("got %d labels", len(labels))
	}
	total := 0
	for _, mg := range merges {
		if mg.Size < 2 {
			t.Errorf("merge size %d < 2", mg.Size)
		}
		if mg.Distance < 0 {
			t.Errorf("negative merge distance")
		}
		total++
	}
	// The final merge must produce the full set.
	if merges[len(merges)-1].Size != 20 {
		t.Errorf("last merge size = %d, want 20", merges[len(merges)-1].Size)
	}
}

func TestLinkageString(t *testing.T) {
	if AverageLink.String() != "average" || SingleLink.String() != "single" ||
		CompleteLink.String() != "complete" || Linkage(9).String() == "" {
		t.Error("Linkage strings wrong")
	}
}

// footprintAt builds a one-region footprint at the given cell.
func footprintAt(x, y, size float64) core.Footprint {
	return core.Footprint{{Rect: geom.Rect{MinX: x, MinY: y, MaxX: x + size, MaxY: y + size}, Weight: 1}}
}

func TestDistanceMatrix(t *testing.T) {
	fps := []core.Footprint{
		footprintAt(0.1, 0.1, 0.1),
		footprintAt(0.1, 0.1, 0.1), // identical to 0
		footprintAt(0.8, 0.8, 0.1), // disjoint from both
	}
	db, err := store.FromFootprints("dm", []int{0, 1, 2}, fps)
	if err != nil {
		t.Fatalf("FromFootprints: %v", err)
	}
	m := DistanceMatrix(db, []int{0, 1, 2}, 2)
	if got := m.At(0, 1); math.Abs(got) > 1e-12 {
		t.Errorf("distance of identical footprints = %v, want 0", got)
	}
	if got := m.At(0, 2); got != 1 {
		t.Errorf("distance of disjoint footprints = %v, want 1", got)
	}
	// Parallel and sequential agree.
	seq := DistanceMatrix(db, []int{0, 1, 2}, 1)
	for i := 0; i < 3; i++ {
		for j := i + 1; j < 3; j++ {
			if m.At(i, j) != seq.At(i, j) {
				t.Errorf("parallel/sequential mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestCharacteristicRegions(t *testing.T) {
	// Two clusters with disjoint home cells plus one shared cell.
	var fps []core.Footprint
	var labels, idxs []int
	for i := 0; i < 10; i++ {
		f := footprintAt(0.1, 0.1, 0.05)              // cluster 0 home
		f = append(f, footprintAt(0.5, 0.5, 0.05)...) // shared
		fps = append(fps, f)
		labels = append(labels, 0)
		idxs = append(idxs, len(idxs))
	}
	for i := 0; i < 10; i++ {
		f := footprintAt(0.8, 0.8, 0.05)              // cluster 1 home
		f = append(f, footprintAt(0.5, 0.5, 0.05)...) // shared
		fps = append(fps, f)
		labels = append(labels, 1)
		idxs = append(idxs, len(idxs))
	}
	ids := make([]int, len(fps))
	for i := range ids {
		ids[i] = i
	}
	db, err := store.FromFootprints("cr", ids, fps)
	if err != nil {
		t.Fatalf("FromFootprints: %v", err)
	}
	cfg := CharacteristicConfig{GridN: 10, MinOwnFrac: 0.5, MaxOtherFrac: 0.1}
	regions, err := CharacteristicRegions(db, idxs, labels, 2, cfg)
	if err != nil {
		t.Fatalf("CharacteristicRegions: %v", err)
	}
	if len(regions) != 2 {
		t.Fatalf("got %d clusters of regions", len(regions))
	}
	containsCell := func(rects []geom.Rect, x, y float64) bool {
		for _, r := range rects {
			if r.Intersects(geom.Rect{MinX: x, MinY: y, MaxX: x, MaxY: y}) {
				return true
			}
		}
		return false
	}
	if !containsCell(regions[0], 0.12, 0.12) {
		t.Error("cluster 0 home cell not characteristic")
	}
	if !containsCell(regions[1], 0.82, 0.82) {
		t.Error("cluster 1 home cell not characteristic")
	}
	// The shared cell is characteristic of neither.
	if containsCell(regions[0], 0.52, 0.52) || containsCell(regions[1], 0.52, 0.52) {
		t.Error("shared cell reported characteristic")
	}
}

func TestCharacteristicRegionsErrors(t *testing.T) {
	db, _ := store.FromFootprints("e", []int{0}, []core.Footprint{footprintAt(0, 0, 0.1)})
	if _, err := CharacteristicRegions(db, []int{0}, []int{0, 1}, 2, DefaultCharacteristicConfig()); err == nil {
		t.Error("mismatched lengths accepted")
	}
	if _, err := CharacteristicRegions(db, []int{0}, []int{5}, 2, DefaultCharacteristicConfig()); err == nil {
		t.Error("out-of-range label accepted")
	}
	cfg := DefaultCharacteristicConfig()
	cfg.GridN = 0
	if _, err := CharacteristicRegions(db, []int{0}, []int{0}, 1, cfg); err == nil {
		t.Error("zero grid accepted")
	}
}

func TestRenderASCII(t *testing.T) {
	regions := [][]geom.Rect{
		{{MinX: 0, MinY: 0, MaxX: 0.25, MaxY: 0.25}},
		{{MinX: 0.75, MinY: 0.75, MaxX: 1, MaxY: 1}},
	}
	out := RenderASCII(regions, 4)
	lines := []byte(out)
	_ = lines
	// 4 rows of 4 runes plus newlines.
	if len(out) != 4*5 {
		t.Fatalf("unexpected render size %d:\n%s", len(out), out)
	}
	// Cluster 1 ('1') bottom-left: last row, first column.
	rows := []string{out[0:4], out[5:9], out[10:14], out[15:19]}
	if rows[3][0] != '1' {
		t.Errorf("bottom-left should be '1':\n%s", out)
	}
	if rows[0][3] != '2' {
		t.Errorf("top-right should be '2':\n%s", out)
	}
}

// TestEndToEndPersonaRecovery: clusters of synthetic footprints with
// clear structure are recovered by average-link clustering.
func TestEndToEndPersonaRecovery(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var fps []core.Footprint
	var truth []int
	centers := [][2]float64{{0.2, 0.2}, {0.7, 0.3}, {0.4, 0.8}}
	for u := 0; u < 45; u++ {
		p := u % 3
		truth = append(truth, p)
		var f core.Footprint
		for r := 0; r < 4; r++ {
			x := centers[p][0] + (rng.Float64()-0.5)*0.1
			y := centers[p][1] + (rng.Float64()-0.5)*0.1
			f = append(f, core.Region{
				Rect:   geom.Rect{MinX: x, MinY: y, MaxX: x + 0.05, MaxY: y + 0.05},
				Weight: 1,
			})
		}
		fps = append(fps, f)
	}
	ids := make([]int, len(fps))
	idxs := make([]int, len(fps))
	for i := range ids {
		ids[i], idxs[i] = i, i
	}
	db, err := store.FromFootprints("e2e", ids, fps)
	if err != nil {
		t.Fatalf("FromFootprints: %v", err)
	}
	m := DistanceMatrix(db, idxs, 0)
	labels, err := Agglomerative(m, 3, AverageLink)
	if err != nil {
		t.Fatalf("Agglomerative: %v", err)
	}
	if !samePartition(labels, truth) {
		t.Errorf("clustering did not recover the planted partition\nlabels: %v\ntruth:  %v", labels, truth)
	}
}
