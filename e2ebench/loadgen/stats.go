package loadgen

import (
	"math"
	"sort"
	"time"
)

// Samples keeps every observation exactly. A run records a few tens of
// thousands of latencies, so sorting them once at the end is cheaper
// and more honest than any bucketed histogram: two runs can only
// report the same quantile if they measured the same value.
type Samples struct {
	v      []float64 // milliseconds
	sorted bool
}

// Add records one duration.
func (s *Samples) Add(d time.Duration) {
	s.v = append(s.v, float64(d)/float64(time.Millisecond))
	s.sorted = false
}

// Merge appends every observation of o.
func (s *Samples) Merge(o *Samples) {
	s.v = append(s.v, o.v...)
	s.sorted = false
}

// Len is the number of observations.
func (s *Samples) Len() int { return len(s.v) }

// Quantile returns the nearest-rank q-quantile in milliseconds: the
// smallest observation with at least q of all observations at or below
// it. It returns NaN when there are no observations.
func (s *Samples) Quantile(q float64) float64 {
	if len(s.v) == 0 {
		return math.NaN()
	}
	if !s.sorted {
		sort.Float64s(s.v)
		s.sorted = true
	}
	rank := int(math.Ceil(q * float64(len(s.v))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s.v) {
		rank = len(s.v)
	}
	return s.v[rank-1]
}

// Mean returns the arithmetic mean in milliseconds (NaN when empty).
func (s *Samples) Mean() float64 {
	if len(s.v) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range s.v {
		sum += x
	}
	return sum / float64(len(s.v))
}

// Median returns the median of xs (NaN when empty); xs is not modified.
func Median(xs []float64) float64 {
	s := Samples{v: append([]float64(nil), xs...)}
	return s.Quantile(0.5)
}
