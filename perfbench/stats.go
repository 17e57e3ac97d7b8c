package main

import (
	"fmt"
	"math"
	"sort"
)

// quantile returns the q-quantile of xs (0 ≤ q ≤ 1), interpolating
// linearly between closest ranks. xs need not be sorted.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// tailBeyond is how many samples must lie above a reported tail.
const tailBeyond = 10

// tail returns the highest percentile of xs that has at least ten
// samples above it — the eleventh-largest sample — and its label. With
// fewer than 21 samples no percentile above the median qualifies, and
// the median is returned under the label "p50".
func tail(xs []float64) (float64, string) {
	n := len(xs)
	idx := n - 1 - tailBeyond
	if 2*idx <= n-1 {
		return quantile(xs, 0.5), "p50"
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[idx], fmt.Sprintf("p%.1f", 100*float64(idx)/float64(n-1))
}

// bucketQuantile estimates the q-quantile of a fixed-bucket histogram
// from its per-bucket counts (counts has one more slot than bounds, for
// +Inf) the way internal/obs does: find the bucket holding the
// ceil(q·total)-th sample and interpolate linearly inside it.
func bucketQuantile(bounds []float64, counts []int64, q float64) float64 {
	var total int64
	for _, c := range counts {
		total += c
	}
	if total == 0 || len(bounds) == 0 {
		return 0
	}
	rank := max(int64(math.Ceil(q*float64(total))), 1)
	var seen int64
	for i, c := range counts {
		if seen+c < rank {
			seen += c
			continue
		}
		if i >= len(bounds) {
			return bounds[len(bounds)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = bounds[i-1]
		}
		return lo + (bounds[i]-lo)*float64(rank-seen)/float64(c)
	}
	return bounds[len(bounds)-1]
}
