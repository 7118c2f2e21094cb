package main

import (
	"math"
	"sort"
	"time"
)

// samples collects one latency or size distribution.
type samples struct{ v []float64 }

func (s *samples) add(x float64)          { s.v = append(s.v, x) }
func (s *samples) addDur(d time.Duration) { s.v = append(s.v, float64(d)/1e6) } // ms
func (s *samples) addUs(d time.Duration)  { s.v = append(s.v, float64(d)/1e3) } // µs
func (s *samples) n() int                 { return len(s.v) }
func (s *samples) sorted() []float64      { c := append([]float64(nil), s.v...); sort.Float64s(c); return c }

// quantile is the nearest-rank quantile q of the samples (0 when empty).
func (s *samples) quantile(q float64) float64 {
	if len(s.v) == 0 {
		return 0
	}
	c := s.sorted()
	i := int(math.Ceil(q*float64(len(c)))) - 1
	if i < 0 {
		i = 0
	}
	return c[i]
}

func (s *samples) mean() float64 {
	if len(s.v) == 0 {
		return 0
	}
	return s.sum() / float64(len(s.v))
}

func (s *samples) sum() float64 {
	var t float64
	for _, x := range s.v {
		t += x
	}
	return t
}

func (s *samples) max() float64 {
	var m float64
	for _, x := range s.v {
		m = math.Max(m, x)
	}
	return m
}

// median of a small slice of values.
func median(v []float64) float64 {
	s := samples{v: v}
	return s.quantile(0.5)
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
