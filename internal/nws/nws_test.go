package nws

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"griddles/internal/simclock"
	"griddles/internal/simnet"
)

func ts(i int) time.Time { return time.Unix(int64(i), 0) }

func TestForecastersOnConstantSeries(t *testing.T) {
	samples := make([]Sample, 10)
	for i := range samples {
		samples[i] = Sample{T: ts(i), V: 42}
	}
	for _, f := range DefaultForecasters() {
		if got := f.Predict(samples); got != 42 {
			t.Errorf("%s on constant series = %v, want 42", f.Name(), got)
		}
	}
}

func TestMeanWindow(t *testing.T) {
	s := []Sample{{V: 1}, {V: 2}, {V: 3}, {V: 4}}
	if got := (MeanWindow{K: 2}).Predict(s); got != 3.5 {
		t.Errorf("mean2 = %v", got)
	}
	if got := (MeanWindow{K: 100}).Predict(s); got != 2.5 {
		t.Errorf("mean over short series = %v", got)
	}
}

func TestMedianWindowRobustToOutlier(t *testing.T) {
	s := []Sample{{V: 10}, {V: 10}, {V: 10}, {V: 10}, {V: 1000}}
	if got := (MedianWindow{K: 5}).Predict(s); got != 10 {
		t.Errorf("median5 with outlier = %v, want 10", got)
	}
	if got := (MeanWindow{K: 5}).Predict(s); got <= 10 {
		t.Errorf("mean should be dragged by outlier, got %v", got)
	}
	// Even-length median averages the middle pair.
	even := []Sample{{V: 1}, {V: 3}}
	if got := (MedianWindow{K: 2}).Predict(even); got != 2 {
		t.Errorf("median2 = %v", got)
	}
}

func TestEWMAWeighting(t *testing.T) {
	s := []Sample{{V: 0}, {V: 100}}
	if got := (EWMA{Alpha: 0.3}).Predict(s); math.Abs(got-30) > 1e-9 {
		t.Errorf("ewma = %v, want 30", got)
	}
	// Invalid alpha falls back to 0.5.
	if got := (EWMA{Alpha: 7}).Predict(s); math.Abs(got-50) > 1e-9 {
		t.Errorf("ewma fallback = %v, want 50", got)
	}
}

func TestSeriesAdaptiveSelection(t *testing.T) {
	// On a noisy series with spikes the median should out-predict
	// last-value, so the adaptive forecast converges on a median.
	s := NewSeries(64, []Forecaster{LastValue{}, MedianWindow{K: 5}})
	vals := []float64{10, 10, 500, 10, 10, 10, 700, 10, 10, 10, 600, 10, 10, 10}
	for i, v := range vals {
		s.Record(ts(i), v)
	}
	_, by, ok := s.Forecast()
	if !ok {
		t.Fatal("no forecast")
	}
	if by != "median5" {
		t.Errorf("adaptive selection picked %s, want median5", by)
	}
}

func TestSeriesCapacityBounded(t *testing.T) {
	s := NewSeries(8, nil)
	for i := 0; i < 100; i++ {
		s.Record(ts(i), float64(i))
	}
	if s.Len() != 8 {
		t.Errorf("len=%d, want 8", s.Len())
	}
	last, ok := s.Last()
	if !ok || last.V != 99 {
		t.Errorf("last = %+v", last)
	}
}

func TestEmptySeriesForecast(t *testing.T) {
	s := NewSeries(8, nil)
	if _, _, ok := s.Forecast(); ok {
		t.Error("forecast on empty series reported ok")
	}
	if _, ok := s.Last(); ok {
		t.Error("last on empty series reported ok")
	}
}

func TestServiceEstimateTransfer(t *testing.T) {
	svc := NewService()
	if _, ok := svc.EstimateTransfer("a", "b", 1000); ok {
		t.Error("estimate on unmeasured link reported ok")
	}
	svc.Record("a", "b", MetricLatency, ts(0), 0.1)    // 100ms
	svc.Record("a", "b", MetricBandwidth, ts(0), 1e6)  // 1 MB/s
	d, ok := svc.EstimateTransfer("a", "b", 2_000_000) // 2 MB
	if !ok {
		t.Fatal("estimate not ok")
	}
	want := 2100 * time.Millisecond
	if d < want-time.Millisecond || d > want+time.Millisecond {
		t.Errorf("estimate = %v, want ~%v", d, want)
	}
}

func TestProbeMeasuresSimnetLink(t *testing.T) {
	v := simclock.NewVirtualDefault()
	n := simnet.New(v)
	const lat = 40 * time.Millisecond
	const bw = 2 << 20 // 2 MiB/s
	n.SetLinkBoth("a", "b", simnet.LinkSpec{Latency: lat, Bandwidth: bw})
	v.Run(func() {
		l, err := n.Host("b").Listen("b:8100")
		if err != nil {
			t.Fatal(err)
		}
		v.Go("sensor", func() { NewSensor(v).Serve(l) })
		p := NewProber(v, n.Host("a"))
		gotLat, gotBW, err := p.Probe("b:8100")
		if err != nil {
			t.Fatal(err)
		}
		if gotLat < lat-5*time.Millisecond || gotLat > lat+20*time.Millisecond {
			t.Errorf("latency estimate %v, want ~%v", gotLat, lat)
		}
		// The estimate is window/serialization-limited, so allow a broad
		// band around truth.
		if gotBW < float64(bw)/8 || gotBW > float64(bw)*2 {
			t.Errorf("bandwidth estimate %.0f, want within [bw/8, 2bw] of %d", gotBW, bw)
		}
	})
}

func TestMonitorRecordsAndStops(t *testing.T) {
	v := simclock.NewVirtualDefault()
	n := simnet.New(v)
	n.SetLinkBoth("a", "b", simnet.LinkSpec{Latency: 10 * time.Millisecond, Bandwidth: 4 << 20})
	v.Run(func() {
		l, err := n.Host("b").Listen("b:8100")
		if err != nil {
			t.Fatal(err)
		}
		v.Go("sensor", func() { NewSensor(v).Serve(l) })
		svc := NewService()
		stop := simclock.NewEvent(v)
		mon := NewMonitor(v, svc, time.Minute, []Target{
			{Src: "a", Dst: "b", Addr: "b:8100", Dialer: n.Host("a")},
		})
		done := simclock.NewWaitGroup(v)
		done.Add(1)
		v.Go("monitor", func() { defer done.Done(); mon.Run(stop) })
		v.Sleep(5*time.Minute + time.Second)
		stop.Set()
		done.Wait()
		if got := svc.SeriesFor("a", "b", MetricLatency).Len(); got < 5 {
			t.Errorf("latency samples = %d, want >= 5", got)
		}
		if _, ok := svc.Forecast("a", "b", MetricBandwidth); !ok {
			t.Error("no bandwidth forecast after monitoring")
		}
	})
}

func TestMonitorSkipsDeadLinks(t *testing.T) {
	v := simclock.NewVirtualDefault()
	n := simnet.New(v)
	v.Run(func() {
		svc := NewService()
		mon := NewMonitor(v, svc, time.Minute, []Target{
			{Src: "a", Dst: "ghost", Addr: "ghost:1", Dialer: n.Host("a")},
		})
		mon.ProbeOnce() // must not panic or record
		if svc.SeriesFor("a", "ghost", MetricLatency).Len() != 0 {
			t.Error("dead link produced samples")
		}
	})
}

// Property: all forecasters stay within [min, max] of the observed window —
// a sanity invariant that holds for every averaging-style predictor here.
func TestForecastersBoundedProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		if len(raw) > 60 {
			raw = raw[:60]
		}
		samples := make([]Sample, len(raw))
		lo, hi := math.Inf(1), math.Inf(-1)
		for i, r := range raw {
			v := float64(r)
			samples[i] = Sample{T: ts(i), V: v}
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
		}
		for _, fc := range DefaultForecasters() {
			p := fc.Predict(samples)
			if p < lo-1e-9 || p > hi+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Last reports the most recent observation.
func (s *Series) Last() (Sample, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.samples) == 0 {
		return Sample{}, false
	}
	return s.samples[len(s.samples)-1], true
}
