// Package a is the hotmath fixture: math.Min and math.Max calls inside
// //geo:hotpath functions are flagged; the builtins, other math
// functions, unmarked functions and justified suppressions are not.
package a

import "math"

// Overlap is the positive case: the shape Algorithm 4's inner loop had.
//
//geo:hotpath
func Overlap(aLo, aHi, bLo, bHi float64) float64 {
	w := math.Min(aHi, bHi) - math.Max(aLo, bLo) // want `math.Min is an out-of-line call in //geo:hotpath function Overlap; use the min builtin` `math.Max is an out-of-line call in //geo:hotpath function Overlap; use the max builtin`
	if w <= 0 {
		return 0
	}
	return w
}

// Inline is the same kernel on the builtins, plus a math function that
// has no builtin twin: nothing fires.
//
//geo:hotpath
func Inline(aLo, aHi, bLo, bHi float64) float64 {
	w := min(aHi, bHi) - max(aLo, bLo)
	if w <= 0 {
		return 0
	}
	return math.Sqrt(w)
}

// Cold calls math.Min without the marker: out of scope.
func Cold(a, b float64) float64 {
	return math.Min(a, b) + math.Max(a, b)
}

// Guarded is a hot function whose one call sits on a cold branch; the
// suppression carries that justification.
//
//geo:hotpath
func Guarded(xs []float64, lo float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	if s != s {
		//lint:ignore hotmath NaN fallback, reached once per corrupt input, never per element
		return math.Max(lo, 0)
	}
	return s
}

// Shadow calls a local function that happens to be named like the
// math ones: only the math package's are flagged.
//
//geo:hotpath
func Shadow(a, b float64) float64 {
	return Min(a, b)
}

// Min is a local helper, not math.Min.
func Min(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}
