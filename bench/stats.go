package main

import "sort"

// summary is a sample's median and quartiles.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

// summarize returns the median and the quartiles of xs. Quartiles use the
// "exclusive" method of Python's statistics.quantiles(xs, n=4), so spreads
// read the same here as in any script that checks them; one sample is its
// own median and quartiles. The zero summary stands for no samples.
func summarize(xs []float64) summary {
	n := len(xs)
	if n == 0 {
		return summary{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	mid := s[n/2]
	if n%2 == 0 {
		mid = (s[n/2-1] + s[n/2]) / 2
	}
	if n == 1 {
		return summary{Median: mid, Q1: mid, Q3: mid, N: 1}
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return summary{Median: mid, Q1: q(1), Q3: q(3), N: n}
}

// spread is the interquartile distance as a share of the median.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / s.Median
}
