package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported tail
// percentile: with fewer, the percentile is one or two outliers and
// does not repeat.
const minBeyond = 10

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile returns the nearest-rank q-quantile (0 < q ≤ 1) of xs:
// the smallest sample with at least q·n samples at or below it.
func percentile(xs []float64, q float64) float64 {
	s := sorted(xs)
	rank := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(rank, 0), len(s)-1)]
}

// median is the 0.5-quantile, averaging the two middle samples of an
// even-sized set.
func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// beyondP90 counts the samples beyond the 0.9-quantile of n samples.
func beyondP90(n int) int { return n - int(math.Ceil(0.9*float64(n))) }

// p90 is the 0.9-quantile, refused unless at least minBeyond samples
// lie beyond it.
func p90(xs []float64) (float64, error) {
	if b := beyondP90(len(xs)); b < minBeyond {
		return 0, fmt.Errorf("p90 of %d samples has %d beyond it, need %d", len(xs), b, minBeyond)
	}
	return percentile(xs, 0.9), nil
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(xs, n=4) computes them (the exclusive method),
// which is what the benchmark contract's spread is defined on.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	if n < 2 {
		return s[0], s[0]
	}
	at := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}
