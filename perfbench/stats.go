package main

import (
	"fmt"
	"math"
	"sort"
)

// tailBeyond is the number of samples that must lie beyond a reported
// tail percentile: a p99 of 200 samples rests on two values and says
// nothing, so the tail is the highest percentile that still has this
// many samples above it.
const tailBeyond = 10

// tailCandidates are the percentiles a tail is reported at, highest
// first.
var tailCandidates = []float64{99.9, 99, 95, 90, 75, 50}

// summary is a sample set's median and tail, with the count both rest on.
type summary struct {
	N      int
	Median float64
	TailP  float64 // the percentile the tail is reported at
	Tail   float64
}

func (s summary) String() string {
	return fmt.Sprintf("p50=%.4g p%g=%.4g (n=%d)", s.Median, s.TailP, s.Tail, s.N)
}

// tailPercentile returns the highest candidate percentile with at least
// tailBeyond of n samples strictly beyond its nearest-rank position,
// falling back to the median when n is too small for any of them.
func tailPercentile(n int) float64 {
	for _, p := range tailCandidates {
		if n-nearestRank(p, n) >= tailBeyond {
			return p
		}
	}
	return 50
}

// nearestRank is the 1-based nearest-rank index of percentile p in n
// sorted samples.
func nearestRank(p float64, n int) int {
	r := int(math.Ceil(p/100*float64(n) - 1e-9)) // 99.9% of 10000 is 9990, not 9991
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// percentile is the nearest-rank percentile of sorted.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[nearestRank(p, len(sorted))-1]
}

// summarize sorts a copy of xs and reports its median and tail.
func summarize(xs []float64) summary {
	s := sortedCopy(xs)
	p := tailPercentile(len(s))
	return summary{N: len(s), Median: median(s), TailP: p, Tail: percentile(s, p)}
}

// median of xs (which need not be sorted); NaN when empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// geomean of positive xs.
func geomean(xs ...float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// windowedTail summarizes latencies in arrival order with a tail that
// is the median of the tails of consecutive windows of the given size:
// one stall (a collection, a neighbour's burst) then spoils one window
// instead of the whole figure. Fewer than two windows fall back to the
// plain tail.
func windowedTail(xs []float64, window int) summary {
	all := summarize(xs)
	if len(xs) < 2*window {
		return all
	}
	var tails []float64
	p := tailPercentile(window)
	for lo := 0; lo+window <= len(xs); lo += window {
		tails = append(tails, percentile(sortedCopy(xs[lo:lo+window]), p))
	}
	return summary{N: all.N, Median: all.Median, TailP: p, Tail: median(tails)}
}
