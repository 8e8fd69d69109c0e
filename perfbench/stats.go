package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count); NaN for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailBeyond is how many samples must lie above the reported tail value.
const tailBeyond = 10

// tail applies the benchmark's tail rule: the latency at the highest
// percentile that still has at least tailBeyond samples beyond it. Over n
// sorted samples that is the value at rank n-tailBeyond-1 (exactly
// tailBeyond samples sit above it), at percentile 100·(n-tailBeyond)/n.
// With n ≤ tailBeyond no percentile qualifies; ok is then false and the
// caller reports the maximum, labelled as such.
func tail(xs []float64) (value, percentile float64, ok bool) {
	n := len(xs)
	if n == 0 {
		return math.NaN(), 0, false
	}
	s := sortedCopy(xs)
	if n <= tailBeyond {
		return s[n-1], 100, false
	}
	return s[n-tailBeyond-1], 100 * float64(n-tailBeyond) / float64(n), true
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
