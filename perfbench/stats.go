package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty slice). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// beyond counts the samples strictly above v.
func beyond(xs []float64, v float64) int {
	n := 0
	for _, x := range xs {
		if x > v {
			n++
		}
	}
	return n
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// frac returns a/b, or 0 when b is 0.
func frac(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// updateP50 is the update latency reported as update_p50_ms: the mean of
// the append median and the remove median. Updates alternate between the
// two, whose costs differ by about 3x, so the median of the pooled
// latencies would sit in the gap between the two clusters and jump between
// them from run to run. A kind without samples is left out.
func updateP50(appends, removes []float64) float64 {
	var meds []float64
	for _, xs := range [][]float64{appends, removes} {
		if len(xs) > 0 {
			meds = append(meds, quantile(xs, 0.5))
		}
	}
	return mean(meds)
}
