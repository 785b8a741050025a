package main

import (
	"fmt"
	"math"
	"sort"
)

// metric is one end_to_end entry of BENCHMARK.json.
type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"` // "higher" or "lower"
	Bound  float64 `json:"bound"`  // how far the median may worsen, as a share of the parent's
}

// summary is one metric on one workload over every pair run.
type summary struct {
	Parent, Change quartiles
	Pairs, Won     int     // pairs run, and those the change read better in; a tie counts for neither side
	Lost           int     // pairs the parent read better in
	Delta          float64 // (change median - parent median) / parent median
	Verdict        string
}

type quartiles struct{ Q1, Median, Q3 float64 }

func (q quartiles) iqr() float64 { return q.Q3 - q.Q1 }

// quantile interpolates linearly between the order statistics of sorted.
func quantile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := p * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (pos-float64(lo))*(sorted[hi]-sorted[lo])
}

func quartilesOf(v []float64) quartiles {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return quartiles{quantile(s, 0.25), quantile(s, 0.5), quantile(s, 0.75)}
}

// The verdicts, from the choosing-metrics guide (sections 6 and 8).
const (
	verdictGain       = "GAIN"         // wins >= 9/10 of the pairs and the medians are apart by more than the parent's IQR
	verdictRegression = "REGRESSION"   // the change's median is worse than the parent's by more than the bound
	verdictUnresolved = "unresolved"   // the parent's own spread is wider than the bound and the runs overlap
	verdictBetter     = "better"       // better in the median, but short of the gain rule
	verdictWithin     = "within bound" // no worse than the bound allows
)

// summarize compares the paired runs of one metric: parent[i] and change[i]
// are the two sides of pair i.
func summarize(m metric, parent, change []float64) summary {
	s := summary{Parent: quartilesOf(parent), Change: quartilesOf(change), Pairs: len(parent)}
	// sign turns "better" into "larger".
	sign := 1.0
	if m.Better == "lower" {
		sign = -1
	}
	for i := range parent {
		switch d := sign * (change[i] - parent[i]); {
		case d > 0:
			s.Won++
		case d < 0:
			s.Lost++
		}
	}
	s.Delta = (s.Change.Median - s.Parent.Median) / s.Parent.Median
	gainBy := sign * (s.Change.Median - s.Parent.Median)
	worst, best := math.Inf(1), math.Inf(-1) // the change's worst run and the parent's best, as "larger is better"
	for i := range parent {
		worst = math.Min(worst, sign*change[i])
		best = math.Max(best, sign*parent[i])
	}
	switch {
	case 10*s.Won >= 9*s.Pairs && gainBy > s.Parent.iqr():
		s.Verdict = verdictGain
	case -gainBy > m.Bound*math.Abs(s.Parent.Median):
		s.Verdict = verdictRegression
	case s.Parent.iqr() > m.Bound*math.Abs(s.Parent.Median) && worst <= best:
		s.Verdict = verdictUnresolved
	case gainBy > 0:
		s.Verdict = verdictBetter
	default:
		s.Verdict = verdictWithin
	}
	return s
}

func (s summary) String() string {
	return fmt.Sprintf("parent %.4g [%.4g, %.4g]  change %.4g [%.4g, %.4g]  %+.1f%%  won %d/%d lost %d  %s",
		s.Parent.Median, s.Parent.Q1, s.Parent.Q3, s.Change.Median, s.Change.Q1, s.Change.Q3,
		100*s.Delta, s.Won, s.Pairs, s.Lost, s.Verdict)
}
