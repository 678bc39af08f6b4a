package main

import (
	"math"
	"sort"
)

// percentile is the nearest-rank percentile of an ascending slice.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 { return percentile(sortedCopy(v), 0.5) }

// tailPercentile returns the highest of p90/p95/p99 that still has at
// least ten samples beyond it, so a reported tail is never one or two
// outliers. With fewer than 100 samples there is none (name "").
func tailPercentile(sorted []float64) (name string, value float64) {
	for _, c := range []struct {
		name string
		p    float64
	}{{"p99", 0.99}, {"p95", 0.95}, {"p90", 0.90}} {
		rank := int(math.Ceil(c.p * float64(len(sorted))))
		if len(sorted)-rank >= 10 {
			return c.name, sorted[rank-1]
		}
	}
	return "", 0
}

// quartiles returns Q1, median and Q3 with the exclusive method of
// Python's statistics.quantiles(v, n=4), which the driver uses to judge
// run-to-run spread; fewer than two values collapse to the value itself.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := sortedCopy(v)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(k int) float64 {
		pos := float64(k*(n+1)) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

func sum(v []float64) float64 {
	var t float64
	for _, x := range v {
		t += x
	}
	return t
}
