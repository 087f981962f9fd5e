package cache

import "math"

// frequency is the admission filter's popularity estimate: a count-min
// sketch of freqDepth rows of counters, each key identity counted in
// one counter per row and estimated as the least of them (collisions
// only ever add, so the least is the tightest). Increments are
// conservative — only the counters at that least value rise — which
// keeps one-off keys from inflating the counters of the keys they
// share. Every resetFactor × capacity accesses all counters are
// halved, so the estimate follows a shifting workload instead of
// remembering the first one forever. The sketch is sized from the
// cache's capacity. Guarded by the cache's mutex.
type frequency struct {
	counts []uint16 // freqDepth rows of mask+1 counters, row-major
	mask   uint64
	added  int // accesses since the last halving
	period int
}

const (
	freqDepth = 4
	// widthFactor counters per row per cache entry: at the halving
	// period below, a row holds about ten counted keys per counter
	// even if every access names a new key, and under any skewed
	// workload far fewer.
	widthFactor = 4
	// resetFactor × capacity accesses between two halvings: the sample
	// over which popularity is judged, many times the cache so a query
	// must recur to rank above a one-off.
	resetFactor = 40
)

func newFrequency(capacity int) frequency {
	width := 16
	for width < widthFactor*capacity {
		width *= 2
	}
	return frequency{
		counts: make([]uint16, freqDepth*width),
		mask:   uint64(width - 1),
		period: resetFactor * capacity,
	}
}

// slots returns the counter of id in every row: double hashing of its
// two halves, the odd stride keeping the rows' positions independent.
func (f *frequency) slots(id uint64) [freqDepth]int {
	lo, hi := id, id>>32|1
	width := int(f.mask + 1)
	var s [freqDepth]int
	for r := range s {
		s[r] = r*width + int((lo+uint64(r)*hi)&f.mask)
	}
	return s
}

// add counts one access of id.
func (f *frequency) add(id uint64) {
	s := f.slots(id)
	least := uint16(math.MaxUint16)
	for _, i := range s {
		least = min(least, f.counts[i])
	}
	if least < math.MaxUint16 {
		for _, i := range s {
			if f.counts[i] == least {
				f.counts[i]++
			}
		}
	}
	if f.added++; f.added >= f.period {
		f.added = 0
		for i := range f.counts {
			f.counts[i] /= 2
		}
	}
}

// estimate returns how often id has been counted since the halvings
// began, never less than the truth over that window.
func (f *frequency) estimate(id uint64) uint16 {
	least := uint16(math.MaxUint16)
	for _, i := range f.slots(id) {
		least = min(least, f.counts[i])
	}
	return least
}
