package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0..100) of v by linear
// interpolation between order statistics; 0 for an empty sample.
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

func median(v []float64) float64 { return percentile(v, 50) }

// tailPercentiles are the candidates for "the highest percentile that still
// has at least ten samples beyond it", in the order they are tried.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75}

// tail returns the highest candidate percentile with at least ten samples
// beyond it, and its value. Samples too few for p75 (under 40) report the
// median: a tail read off fewer than ten samples is noise.
func tail(v []float64) (p, value float64) {
	for _, p := range tailPercentiles {
		if float64(len(v))*(100-p)/100 >= 10-1e-9 { // 100-99.9 is not exactly 0.1
			return p, percentile(v, p)
		}
	}
	return 50, median(v)
}

// iqrShare is the distance between the first and third quartile as a share
// of the median — the spread the acceptance rule uses. Quartiles follow
// Python's statistics.quantiles(v, n=4) (exclusive method). Needs two
// samples; fewer report 0.
func iqrShare(v []float64) float64 {
	n := len(v)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	q := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based rank
		j := int(math.Floor(pos))
		if j < 1 {
			return s[0]
		}
		if j >= n {
			return s[n-1]
		}
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	m := median(s)
	if m == 0 {
		return 0
	}
	return math.Abs((q(3) - q(1)) / m)
}

// samples collects timings of one operation: raw, as measured, and scaled
// to the nominal host (see ref.go), grouped by the distinct input each came
// from. Inputs differ in size, so the end-to-end figure is the median over
// the distinct inputs of each input's own median scaled time; inputs are
// visited in rotation so that every input's repeats are spread over the run.
// The raw all-sample median and tail are reported as per-layer metrics.
type samples struct {
	byInput map[int][]float64 // scaled
	all     []float64         // raw
}

func (s *samples) add(input int, raw, scale float64) { s.addNominal(input, raw, raw*scale) }

// addNominal records a timing beside what it would read on the nominal host.
func (s *samples) addNominal(input int, raw, nominal float64) {
	if s.byInput == nil {
		s.byInput = make(map[int][]float64)
	}
	s.byInput[input] = append(s.byInput[input], nominal)
	s.all = append(s.all, raw)
}

// typical is the median over distinct inputs of each input's median scaled
// time.
func (s *samples) typical() float64 {
	per := make([]float64, 0, len(s.byInput))
	for _, v := range s.byInput {
		per = append(per, median(v))
	}
	return median(per)
}
