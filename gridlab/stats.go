package main

import (
	"math"
	"sort"
	"time"
)

// Sample-count rules for latency reporting. A percentile is reported only
// when at least tailBeyond samples lie beyond it, so the number is an
// order statistic with company rather than the maximum in disguise; a
// `_p95` additionally needs p95MinSamples, because below that the handful
// of samples past it move by tens of percent from run to run.
const (
	tailBeyond    = 10
	p95MinSamples = 200
)

// percentile reports the q-quantile (0 < q < 1) of sorted by linear
// interpolation between closest ranks. sorted must be ascending and
// non-empty.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// median reports the 0.5-quantile of vals (0 for an empty slice). It sorts
// a copy.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return percentile(s, 0.5)
}

// supported reports whether quantile q of n samples has at least
// tailBeyond samples beyond it.
func supported(n int, q float64) bool {
	return float64(n)*(1-q) >= tailBeyond-1e-9 // 100*(1-0.9) is 9.999999999999998
}

// p95 reports the 95th percentile of vals under the withholding rule: ok
// is false (and the value 0) with fewer than p95MinSamples samples.
func p95(vals []float64) (v float64, ok bool) {
	if len(vals) < p95MinSamples {
		return 0, false
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return percentile(s, 0.95), true
}

// interval is one completed unit of work: it ran over [start, end) and
// delivered amount (bytes, or 1 for an operation count).
type interval struct {
	start, end time.Duration
	amount     float64
}

// windowRates splits [from, from+n*width) into n equal windows and reports
// each window's rate in amount per second. An interval contributes to every
// window it overlaps in proportion to the overlap, so a 1.2 s stream that
// straddles a window boundary is not credited whole to the window it
// happens to end in — with closed-loop clients that would make the
// per-window rate a step function of how many ops fit.
func windowRates(ivs []interval, from, width time.Duration, n int) []float64 {
	sums := make([]float64, n)
	for _, iv := range ivs {
		dur := iv.end - iv.start
		if dur <= 0 {
			// An instantaneous op belongs to the window holding its end.
			if k := int((iv.end - from) / width); iv.end >= from && k < n {
				sums[k] += iv.amount
			}
			continue
		}
		for k := 0; k < n; k++ {
			ws := from + time.Duration(k)*width
			lo, hi := max(iv.start, ws), min(iv.end, ws+width)
			if hi > lo {
				sums[k] += iv.amount * float64(hi-lo) / float64(dur)
			}
		}
	}
	for k := range sums {
		sums[k] /= width.Seconds()
	}
	return sums
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
