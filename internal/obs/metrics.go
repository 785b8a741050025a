package obs

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing metric. All methods are safe for
// concurrent use; the increment path is a single atomic add.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n may be zero; negative n is ignored to keep the counter
// monotone).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value reports the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a metric that can go up and down (queue depth, resident blocks).
type Gauge struct{ v atomic.Int64 }

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adds delta (which may be negative).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value reports the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// histBuckets is the number of exponential histogram buckets: bucket i
// counts observations v with 2^(i-1) <= v < 2^i (bucket 0 counts v <= 0 and
// v == 1 lands in bucket 1). 48 buckets cover int64 durations in
// milliseconds far beyond any simulated run.
const histBuckets = 48

// Histogram accumulates an exponential-bucket distribution of int64
// observations (by convention durations in milliseconds, see the _ms metric
// suffix). The observe path is three atomic adds and no allocation.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	buckets [histBuckets]atomic.Int64
}

// bucketOf maps an observation to its bucket index.
func bucketOf(v int64) int {
	if v <= 0 {
		return 0
	}
	b := bits.Len64(uint64(v)) // v in [2^(b-1), 2^b)
	if b >= histBuckets {
		return histBuckets - 1
	}
	return b
}

// Observe records one observation.
func (h *Histogram) Observe(v int64) {
	h.count.Add(1)
	h.sum.Add(v)
	h.buckets[bucketOf(v)].Add(1)
}

// ObserveDuration records d in milliseconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Milliseconds()) }

// HistogramSnapshot is a point-in-time copy of a histogram.
type HistogramSnapshot struct {
	Count int64
	Sum   int64
	// Buckets[i] counts observations in [2^(i-1), 2^i); Buckets[0] counts
	// observations <= 0.
	Buckets [histBuckets]int64
}

// Mean reports the arithmetic mean observation (0 when empty).
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// Snapshot copies the current state. Concurrent observations may land
// between the field reads; each field is itself consistent.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	s.Count = h.count.Load()
	s.Sum = h.sum.Load()
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	return s
}

// Shared discard instruments returned by nil Observers. They are real
// instruments (atomics tolerate concurrent use); their values are simply
// never read.
var (
	discardCounter   = &Counter{}
	discardGauge     = &Gauge{}
	discardHistogram = &Histogram{}
)

// Registry holds named metrics. Lookup is a read-locked map hit; callers on
// hot paths should look a metric up once and keep the pointer.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty Registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c, ok := r.counters[name]
	r.mu.RUnlock()
	if ok {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok = r.counters[name]; ok {
		return c
	}
	c = &Counter{}
	r.counters[name] = c
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.RLock()
	g, ok := r.gauges[name]
	r.mu.RUnlock()
	if ok {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok = r.gauges[name]; ok {
		return g
	}
	g = &Gauge{}
	r.gauges[name] = g
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.RLock()
	h, ok := r.hists[name]
	r.mu.RUnlock()
	if ok {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok = r.hists[name]; ok {
		return h
	}
	h = &Histogram{}
	r.hists[name] = h
	return h
}

// Remove deletes the named metrics, whatever their kind, so a snapshot no
// longer reports them. A pointer already handed out stays usable; its
// updates are simply never read. Safe on a nil Registry.
func (r *Registry) Remove(names ...string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, name := range names {
		delete(r.counters, name)
		delete(r.gauges, name)
		delete(r.hists, name)
	}
}

// CounterValue reports the named counter's value, 0 if it was never
// created.
func (r *Registry) CounterValue(name string) int64 {
	r.mu.RLock()
	c, ok := r.counters[name]
	r.mu.RUnlock()
	if !ok {
		return 0
	}
	return c.Value()
}

// SumPrefix sums every counter whose name starts with prefix — e.g.
// SumPrefix("fm.open.total{") totals opens across all modes.
func (r *Registry) SumPrefix(prefix string) int64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var sum int64
	for name, c := range r.counters {
		if strings.HasPrefix(name, prefix) {
			sum += c.Value()
		}
	}
	return sum
}

// Snapshot is a point-in-time copy of every metric in a Registry.
type Snapshot struct {
	Counters   map[string]int64
	Gauges     map[string]int64
	Histograms map[string]HistogramSnapshot
}

// Snapshot copies all current metric values.
func (r *Registry) Snapshot() Snapshot {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s := Snapshot{
		Counters:   make(map[string]int64, len(r.counters)),
		Gauges:     make(map[string]int64, len(r.gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(r.hists)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		s.Histograms[name] = h.Snapshot()
	}
	return s
}

// String renders the snapshot as sorted "name value" lines (histograms as
// count/sum/mean), stable across runs for logging and tests.
func (s Snapshot) String() string {
	var lines []string
	for name, v := range s.Counters {
		lines = append(lines, fmt.Sprintf("%s %d", name, v))
	}
	for name, v := range s.Gauges {
		lines = append(lines, fmt.Sprintf("%s %d", name, v))
	}
	for name, h := range s.Histograms {
		lines = append(lines, fmt.Sprintf("%s count=%d sum=%d mean=%.3f", name, h.Count, h.Sum, h.Mean()))
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// Key builds a metric name with labels: Key("fm.open.total", "mode",
// "buffer") is "fm.open.total{mode=buffer}". kv is alternating key/value
// pairs; a trailing odd key is ignored.
func Key(name string, kv ...string) string {
	if len(kv) < 2 {
		return name
	}
	var b strings.Builder
	b.Grow(len(name) + 2 + len(kv)*8)
	b.WriteString(name)
	b.WriteByte('{')
	for i := 0; i+1 < len(kv); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(kv[i])
		b.WriteByte('=')
		b.WriteString(kv[i+1])
	}
	b.WriteByte('}')
	return b.String()
}
