package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"sync"
	"time"

	"griddles/internal/simclock"
)

// Attr is one key/value attribute of an Event. Supported value types for
// deterministic JSONL encoding: string, bool, signed/unsigned integers,
// float64, time.Duration (encoded as fractional milliseconds) and
// fmt.Stringer; anything else is rendered with %v. Keys must not collide
// with the envelope fields "ts", "seq", "type" and "src".
type Attr struct {
	K string
	V any
}

// KV builds an Attr.
func KV(k string, v any) Attr { return Attr{K: k, V: v} }

// Event is one structured trace record.
type Event struct {
	// Time is the clock time the event was emitted (simulated time on the
	// virtual testbed, so traces there are deterministic).
	Time time.Time
	// Seq is the emit sequence number within one Trace, starting at 0.
	Seq uint64
	// Type names the event, dotted by subsystem: "fm.open", "gb.spill",
	// "wf.stage". OBSERVABILITY.md lists every type the stack emits.
	Type string
	// Src is the emitting component: a machine name, a buffer key, or a
	// "component@machine" pair.
	Src string
	// Attrs are the event's payload fields, in emit order.
	Attrs []Attr
}

// Attr reports the value of the named attribute, or nil.
func (e Event) Attr(key string) any {
	for _, a := range e.Attrs {
		if a.K == key {
			return a.V
		}
	}
	return nil
}

// appendJSONValue appends the deterministic JSON encoding of v.
func appendJSONValue(buf []byte, v any) []byte {
	switch x := v.(type) {
	case string:
		b, _ := json.Marshal(x)
		return append(buf, b...)
	case bool:
		return strconv.AppendBool(buf, x)
	case int:
		return strconv.AppendInt(buf, int64(x), 10)
	case int32:
		return strconv.AppendInt(buf, int64(x), 10)
	case int64:
		return strconv.AppendInt(buf, x, 10)
	case uint:
		return strconv.AppendUint(buf, uint64(x), 10)
	case uint32:
		return strconv.AppendUint(buf, uint64(x), 10)
	case uint64:
		return strconv.AppendUint(buf, x, 10)
	case float64:
		if math.IsNaN(x) || math.IsInf(x, 0) {
			b, _ := json.Marshal(fmt.Sprint(x))
			return append(buf, b...)
		}
		return strconv.AppendFloat(buf, x, 'g', -1, 64)
	case time.Duration:
		// Fractional milliseconds: readable at both WAN (seconds) and
		// simulated-IO (microsecond) scales.
		return strconv.AppendFloat(buf, float64(x)/float64(time.Millisecond), 'g', -1, 64)
	case fmt.Stringer:
		b, _ := json.Marshal(x.String())
		return append(buf, b...)
	case nil:
		return append(buf, "null"...)
	default:
		b, _ := json.Marshal(fmt.Sprintf("%v", x))
		return append(buf, b...)
	}
}

// AppendJSONL appends the event's single-line JSON encoding (no trailing
// newline). Field order is fixed — ts, seq, type, src, then attributes in
// emit order — so identical event streams encode to identical bytes.
func (e Event) AppendJSONL(buf []byte) []byte {
	buf = append(buf, `{"ts":"`...)
	buf = e.Time.UTC().AppendFormat(buf, time.RFC3339Nano)
	buf = append(buf, `","seq":`...)
	buf = strconv.AppendUint(buf, e.Seq, 10)
	buf = append(buf, `,"type":`...)
	buf = appendJSONValue(buf, e.Type)
	buf = append(buf, `,"src":`...)
	buf = appendJSONValue(buf, e.Src)
	for _, a := range e.Attrs {
		buf = append(buf, ',')
		buf = appendJSONValue(buf, a.K)
		buf = append(buf, ':')
		buf = appendJSONValue(buf, a.V)
	}
	return append(buf, '}')
}

// JSONL reports the event's single-line JSON encoding as a string.
func (e Event) JSONL() string { return string(e.AppendJSONL(nil)) }

// Trace is a bounded in-memory event log with an optional streaming JSONL
// sink. Emission is mutex-serialized (events are rare next to metric
// increments); the ring overwrites oldest events once full.
type Trace struct {
	clock    simclock.Clock
	capacity int // len(ring) once full; the ring grows to it as events arrive

	mu      sync.Mutex
	ring    []Event // ring[next] is the oldest once wrapped
	next    int
	wrapped bool
	seq     uint64
	sink    io.Writer
	sinkErr error
	buf     []byte // reused encode buffer (guarded by mu)
}

// NewTrace returns a Trace retaining up to capacity events (0 selects
// DefaultRingCapacity, negative disables retention) and streaming to sink
// if non-nil.
func NewTrace(clock simclock.Clock, capacity int, sink io.Writer) *Trace {
	if capacity == 0 {
		capacity = DefaultRingCapacity
	}
	if capacity < 0 {
		capacity = 0
	}
	return &Trace{clock: clock, capacity: capacity, sink: sink}
}

// Emit records one event stamped with the trace's clock.
func (t *Trace) Emit(typ, src string, attrs ...Attr) {
	now := t.clock.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	e := Event{Time: now, Seq: t.seq, Type: typ, Src: src, Attrs: attrs}
	t.seq++
	if t.capacity > 0 {
		if len(t.ring) < t.capacity {
			t.ring = append(t.ring, e)
		} else {
			t.ring[t.next] = e
			t.next = (t.next + 1) % t.capacity
			t.wrapped = true
		}
	}
	if t.sink != nil && t.sinkErr == nil {
		t.buf = e.AppendJSONL(t.buf[:0])
		t.buf = append(t.buf, '\n')
		if _, err := t.sink.Write(t.buf); err != nil {
			// Record the first sink failure and stop writing; tracing must
			// never take the workload down.
			t.sinkErr = err
		}
	}
}

// SinkErr reports the first error the sink returned, if any.
func (t *Trace) SinkErr() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.sinkErr
}

// Total reports how many events were ever emitted (including any the ring
// has since dropped).
func (t *Trace) Total() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.seq
}

// Events reports the retained events, oldest first.
func (t *Trace) Events() []Event {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Event, 0, len(t.ring))
	if t.wrapped {
		out = append(out, t.ring[t.next:]...)
		out = append(out, t.ring[:t.next]...)
	} else {
		out = append(out, t.ring...)
	}
	return out
}

// WriteJSONL dumps the retained events to w, one JSON object per line.
func (t *Trace) WriteJSONL(w io.Writer) error {
	for _, e := range t.Events() {
		if _, err := w.Write(append(e.AppendJSONL(nil), '\n')); err != nil {
			return err
		}
	}
	return nil
}
