package cluster

import (
	"fmt"
	"strings"

	"geofootprint/internal/geom"
	"geofootprint/internal/store"
)

// CharacteristicConfig controls characteristic-region extraction.
type CharacteristicConfig struct {
	// GridN divides the unit square into GridN×GridN cells.
	GridN int
	// MinOwnFrac: a cell is characteristic of a cluster only if at
	// least this fraction of the cluster's members cover it.
	MinOwnFrac float64
	// MaxOtherFrac: ... and at most this fraction of every other
	// cluster's members cover it.
	MaxOtherFrac float64
}

// DefaultCharacteristicConfig mirrors the qualitative setting of
// Figure 3(b): a fine grid, regions visited by a solid share of one
// cluster and essentially nobody else.
func DefaultCharacteristicConfig() CharacteristicConfig {
	return CharacteristicConfig{GridN: 40, MinOwnFrac: 0.25, MaxOtherFrac: 0.05}
}

// CharacteristicRegions returns, for each cluster label in [0, k), the
// grid cells (as rectangles in the unit square) that are
// characteristic of that cluster: covered by many of its members and
// few members of any other cluster. idxs and labels are index-aligned;
// labels[i] is the cluster of db user idxs[i].
func CharacteristicRegions(db *store.FootprintDB, idxs []int, labels []int, k int, cfg CharacteristicConfig) ([][]geom.Rect, error) {
	if len(idxs) != len(labels) {
		return nil, fmt.Errorf("cluster: %d users for %d labels", len(idxs), len(labels))
	}
	if cfg.GridN < 1 {
		return nil, fmt.Errorf("cluster: GridN must be positive")
	}
	n := cfg.GridN
	cell := 1.0 / float64(n)

	// counts[c][cellIdx] = members of cluster c covering the cell.
	counts := make([][]int, k)
	for c := range counts {
		counts[c] = make([]int, n*n)
	}
	sizes := make([]int, k)

	for ui, dbIdx := range idxs {
		c := labels[ui]
		if c < 0 || c >= k {
			return nil, fmt.Errorf("cluster: label %d outside [0,%d)", c, k)
		}
		sizes[c]++
		seen := make(map[int]bool)
		for _, reg := range db.Row(dbIdx) {
			r := reg.Rect
			x0 := clampCell(int(r.MinX/cell), n)
			x1 := clampCell(int(r.MaxX/cell), n)
			y0 := clampCell(int(r.MinY/cell), n)
			y1 := clampCell(int(r.MaxY/cell), n)
			for gx := x0; gx <= x1; gx++ {
				for gy := y0; gy <= y1; gy++ {
					seen[gy*n+gx] = true
				}
			}
		}
		for ci := range seen {
			counts[c][ci]++
		}
	}

	out := make([][]geom.Rect, k)
	for ci := 0; ci < n*n; ci++ {
		owner := -1
		for c := 0; c < k; c++ {
			if sizes[c] == 0 {
				continue
			}
			frac := float64(counts[c][ci]) / float64(sizes[c])
			if frac >= cfg.MinOwnFrac {
				if owner != -1 {
					owner = -2 // contested by two clusters
					break
				}
				owner = c
			}
		}
		if owner < 0 {
			continue
		}
		// Exclusivity: every other cluster's coverage stays below
		// MaxOtherFrac.
		exclusive := true
		for c := 0; c < k && exclusive; c++ {
			if c == owner || sizes[c] == 0 {
				continue
			}
			if float64(counts[c][ci])/float64(sizes[c]) > cfg.MaxOtherFrac {
				exclusive = false
			}
		}
		if !exclusive {
			continue
		}
		gx, gy := ci%n, ci/n
		out[owner] = append(out[owner], geom.Rect{
			MinX: float64(gx) * cell, MinY: float64(gy) * cell,
			MaxX: float64(gx+1) * cell, MaxY: float64(gy+1) * cell,
		})
	}
	return out, nil
}

func clampCell(i, n int) int {
	if i < 0 {
		return 0
	}
	if i >= n {
		return n - 1
	}
	return i
}

// RenderASCII draws the characteristic regions of up to 9 clusters on
// an ASCII map (digits 1-9; '.' for uncharacteristic space), the
// textual analogue of Figure 3(b). Rows print top (y=1) to bottom.
func RenderASCII(regions [][]geom.Rect, gridN int) string {
	grid := make([][]byte, gridN)
	for y := range grid {
		grid[y] = []byte(strings.Repeat(".", gridN))
	}
	cell := 1.0 / float64(gridN)
	for c, rects := range regions {
		mark := byte('1' + c%9)
		for _, r := range rects {
			gx := clampCell(int(r.Center().X/cell), gridN)
			gy := clampCell(int(r.Center().Y/cell), gridN)
			grid[gy][gx] = mark
		}
	}
	var b strings.Builder
	for y := gridN - 1; y >= 0; y-- {
		b.Write(grid[y])
		b.WriteByte('\n')
	}
	return b.String()
}
