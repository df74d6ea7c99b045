package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a tail percentile before it
// is reported: with fewer, the percentile is set by one or two outliers.
const minBeyond = 10

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// median is the middle of v (the mean of the two middle values for an even
// count); 0 for no samples. A median is always reported, whatever the count.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sortedCopy(v)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

// tail returns the q-quantile of v (linear interpolation between order
// statistics) and refuses it when fewer than minBeyond samples lie beyond it:
// a p90 needs at least 100 samples, a p99 at least 1000.
func tail(v []float64, q float64) (float64, error) {
	n := len(v)
	beyond := n - int(math.Ceil(q*float64(n)-1e-9))
	if q <= 0 || q >= 1 || beyond < minBeyond {
		return 0, fmt.Errorf("p%g needs %d samples beyond it, have %d of %d", q*100, minBeyond, beyond, n)
	}
	s := sortedCopy(v)
	pos := q * float64(n-1)
	lo := int(pos)
	if lo+1 >= n {
		return s[n-1], nil
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo]), nil
}

// quartiles returns the three cut points of v exactly as Python's
// statistics.quantiles(v, n=4) computes them (the default "exclusive"
// method), so compare agrees with any other tool reading the same runs.
// One sample gives that sample three times.
func quartiles(v []float64) [3]float64 {
	s := sortedCopy(v)
	n := len(s)
	var q [3]float64
	if n == 0 {
		return q
	}
	if n == 1 {
		return [3]float64{s[0], s[0], s[0]}
	}
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q
}
