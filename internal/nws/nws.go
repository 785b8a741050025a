// Package nws implements a Network Weather Service in the style of Wolski
// et al. (paper ref [36]): active link probes feed per-link time series, and
// an ensemble of simple forecasters predicts near-future latency and
// bandwidth. GriddLeS uses the forecasts to pick replicas (paper §3.1: "if
// dynamic information such as the network bandwidth and latency is
// available, then the most efficient pathway can be chosen") and to re-bind
// read-only files mid-run when conditions change.
package nws

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"griddles/internal/obs"
)

// Sample is one observation of a series.
type Sample struct {
	T time.Time
	V float64
}

// Forecaster predicts the next value of a series from its history.
type Forecaster interface {
	// Name identifies the forecaster in reports.
	Name() string
	// Predict returns the forecast for the next sample. samples is ordered
	// oldest-first and non-empty.
	Predict(samples []Sample) float64
}

// LastValue predicts the most recent observation.
type LastValue struct{}

// Name implements Forecaster.
func (LastValue) Name() string { return "last" }

// Predict implements Forecaster.
func (LastValue) Predict(s []Sample) float64 { return s[len(s)-1].V }

// MeanWindow predicts the mean of the last K observations.
type MeanWindow struct{ K int }

// Name implements Forecaster.
func (m MeanWindow) Name() string { return fmt.Sprintf("mean%d", m.K) }

// Predict implements Forecaster.
func (m MeanWindow) Predict(s []Sample) float64 {
	k := m.K
	if k <= 0 || k > len(s) {
		k = len(s)
	}
	var sum float64
	for _, x := range s[len(s)-k:] {
		sum += x.V
	}
	return sum / float64(k)
}

// MedianWindow predicts the median of the last K observations — robust to
// the bursty outliers WAN probes produce.
type MedianWindow struct{ K int }

// Name implements Forecaster.
func (m MedianWindow) Name() string { return fmt.Sprintf("median%d", m.K) }

// Predict implements Forecaster.
func (m MedianWindow) Predict(s []Sample) float64 {
	k := m.K
	if k <= 0 || k > len(s) {
		k = len(s)
	}
	vals := make([]float64, k)
	for i, x := range s[len(s)-k:] {
		vals[i] = x.V
	}
	sort.Float64s(vals)
	if k%2 == 1 {
		return vals[k/2]
	}
	return (vals[k/2-1] + vals[k/2]) / 2
}

// EWMA predicts an exponentially weighted moving average.
type EWMA struct{ Alpha float64 }

// Name implements Forecaster.
func (e EWMA) Name() string { return fmt.Sprintf("ewma%.2f", e.Alpha) }

// Predict implements Forecaster.
func (e EWMA) Predict(s []Sample) float64 {
	a := e.Alpha
	if a <= 0 || a > 1 {
		a = 0.5
	}
	v := s[0].V
	for _, x := range s[1:] {
		v = a*x.V + (1-a)*v
	}
	return v
}

// DefaultForecasters is the ensemble NWS-style adaptive prediction draws
// from.
func DefaultForecasters() []Forecaster {
	return []Forecaster{
		LastValue{},
		MeanWindow{K: 5},
		MeanWindow{K: 20},
		MedianWindow{K: 5},
		MedianWindow{K: 21},
		EWMA{Alpha: 0.3},
	}
}

// Series is one measured quantity with adaptive forecasting: every
// forecaster's cumulative absolute error is tracked, and Forecast uses the
// forecaster that has been most accurate so far — the mechanism the real
// NWS calls dynamic predictor selection.
type Series struct {
	mu       sync.Mutex
	cap      int
	samples  []Sample
	fcs      []Forecaster
	errs     []float64 // cumulative |error| per forecaster
	lastPred []float64 // each forecaster's prediction for the next sample
	havePred bool
}

// NewSeries returns a Series holding up to capacity samples (default 128).
func NewSeries(capacity int, fcs []Forecaster) *Series {
	if capacity <= 0 {
		capacity = 128
	}
	if len(fcs) == 0 {
		fcs = DefaultForecasters()
	}
	return &Series{
		cap:      capacity,
		fcs:      fcs,
		errs:     make([]float64, len(fcs)),
		lastPred: make([]float64, len(fcs)),
	}
}

// Record appends an observation, scoring each forecaster's previous
// prediction against it.
func (s *Series) Record(t time.Time, v float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.havePred {
		for i := range s.fcs {
			s.errs[i] += math.Abs(s.lastPred[i] - v)
		}
	}
	s.samples = append(s.samples, Sample{T: t, V: v})
	if len(s.samples) > s.cap {
		s.samples = s.samples[len(s.samples)-s.cap:]
	}
	for i, f := range s.fcs {
		s.lastPred[i] = f.Predict(s.samples)
	}
	s.havePred = true
}

// Len reports the number of retained samples.
func (s *Series) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.samples)
}

// Forecast reports the prediction of the best forecaster so far and its
// name. ok is false when no samples exist.
func (s *Series) Forecast() (v float64, by string, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.samples) == 0 {
		return 0, "", false
	}
	best := 0
	for i := range s.fcs {
		if s.errs[i] < s.errs[best] {
			best = i
		}
	}
	return s.lastPred[best], s.fcs[best].Name(), true
}

// Service is a registry of link measurements. Series are keyed by
// (src, dst, metric), e.g. ("brecca", "bouscat", "latency").
type Service struct {
	mu     sync.Mutex
	series map[string]*Series
	cap    int
	fcs    []Forecaster
	obs    *obs.Observer
}

// Metric names used by the prober and consumers.
const (
	MetricLatency   = "latency"   // seconds, one-way estimate
	MetricBandwidth = "bandwidth" // bytes per second
)

// NewService returns an empty Service.
func NewService() *Service {
	return &Service{series: make(map[string]*Series)}
}

func seriesKey(src, dst, metric string) string { return src + "\x00" + dst + "\x00" + metric }

// SeriesFor returns (creating if needed) the series for a link metric.
func (s *Service) SeriesFor(src, dst, metric string) *Series {
	s.mu.Lock()
	defer s.mu.Unlock()
	k := seriesKey(src, dst, metric)
	sr, ok := s.series[k]
	if !ok {
		sr = NewSeries(s.cap, s.fcs)
		s.series[k] = sr
	}
	return sr
}

// SetObserver routes per-metric record rates to o; nil discards them.
func (s *Service) SetObserver(o *obs.Observer) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.obs = o
}

// Record stores an observation for a link metric.
func (s *Service) Record(src, dst, metric string, t time.Time, v float64) {
	s.mu.Lock()
	o := s.obs
	s.mu.Unlock()
	o.Counter(obs.Key("nws.record.total", "metric", metric)).Inc()
	s.SeriesFor(src, dst, metric).Record(t, v)
}

// Forecast reports the adaptive forecast for a link metric.
func (s *Service) Forecast(src, dst, metric string) (float64, bool) {
	v, _, ok := s.SeriesFor(src, dst, metric).Forecast()
	return v, ok
}

// EstimateBandwidth reports the forecast bandwidth in bytes per second from
// src to dst. ok is false when the link has no bandwidth measurements or the
// forecast is non-positive; callers should treat such links as unknown.
func (s *Service) EstimateBandwidth(src, dst string) (float64, bool) {
	bw, ok := s.Forecast(src, dst, MetricBandwidth)
	if !ok || bw <= 0 {
		return 0, false
	}
	return bw, true
}

// EstimateTransfer predicts the time to move n bytes from src to dst using
// the current latency and bandwidth forecasts. Links with no measurements
// report ok=false; callers should treat them as unknown, not free.
func (s *Service) EstimateTransfer(src, dst string, n int64) (time.Duration, bool) {
	lat, ok1 := s.Forecast(src, dst, MetricLatency)
	bw, ok2 := s.Forecast(src, dst, MetricBandwidth)
	if !ok1 && !ok2 {
		return 0, false
	}
	secs := 0.0
	if ok1 {
		secs += lat
	}
	if ok2 && bw > 0 {
		secs += float64(n) / bw
	}
	return time.Duration(secs * float64(time.Second)), true
}
