package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"io/fs"
	"math"
	"net"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"testing"
	"time"

	"griddles/internal/gns"
	"griddles/internal/vfs"
)

func TestPercentileRule(t *testing.T) {
	// A percentile needs ten samples beyond it.
	for _, c := range []struct {
		n    int
		q    float64
		want bool
	}{
		{99, 0.90, false}, {100, 0.90, true}, {199, 0.95, false}, {200, 0.95, true},
		{999, 0.99, false}, {1000, 0.99, true},
	} {
		if got := supported(c.n, c.q); got != c.want {
			t.Errorf("supported(%d, %v) = %v, want %v", c.n, c.q, got, c.want)
		}
	}
	vals := make([]float64, 199)
	for i := range vals {
		vals[i] = float64(i)
	}
	if _, ok := p95(vals); ok {
		t.Error("p95 of 199 samples was reported; it is withheld under 200")
	}
	vals = append(vals, 199)
	if v, ok := p95(vals); !ok || math.Abs(v-0.95*199) > 1e-9 {
		t.Errorf("p95 of 0..199 = %v, %v; want %v", v, ok, 0.95*199)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestGroupMedian(t *testing.T) {
	// Two mechanisms, one fast and one slow, three ops to one: the plain
	// median would sit in the fast group; the group median is the weighted
	// mean of the two medians.
	groups := map[uint16][]float64{1: {1, 1, 1, 1, 1, 1}, 2: {10, 10}}
	v, n := groupMedian(groups)
	if want := 1*0.75 + 10*0.25; n != 8 || math.Abs(v-want) > 1e-9 {
		t.Errorf("groupMedian = %v over %d, want %v over 8", v, n, want)
	}
}

func TestWindowRates(t *testing.T) {
	sec := time.Second
	ivs := []interval{
		{0, 1 * sec, 100},       // before the first window: ignored
		{1 * sec, 3 * sec, 200}, // half in window 0
		{3 * sec, 4 * sec, 50},  // wholly in window 0
		{5 * sec, 7 * sec, 80},  // straddles windows 1 and 2
		{9 * sec, 9 * sec, 7},   // instantaneous, in window 3
	}
	got := windowRates(ivs, 2*sec, 2*sec, 4) // windows [2,4) [4,6) [6,8) [8,10)
	want := []float64{(100 + 50) / 2.0, 40 / 2.0, 40 / 2.0, 7 / 2.0}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Errorf("window %d rate = %v, want %v (all %v)", i, got[i], want[i], got)
		}
	}
	if m := median(got); math.Abs(m-20) > 1e-9 {
		t.Errorf("window-median = %v, want 20", m)
	}
}

func TestSelfTimes(t *testing.T) {
	root := span{id: 1, start: 0, end: 100}
	sum := func(v []int64) (s int64) {
		for _, x := range v {
			s += x
		}
		return s
	}
	for _, c := range []struct {
		name  string
		spans []span
		want  []int64
	}{
		{"absent children", []span{root}, []int64{100}},
		{"one child", []span{root, {id: 2, parent: 1, start: 10, end: 40}}, []int64{70, 30}},
		{"grandchild", []span{root, {id: 2, parent: 1, start: 10, end: 40}, {id: 3, parent: 2, start: 20, end: 30}}, []int64{70, 20, 10}},
		{"overlapping siblings share", []span{root, {id: 2, parent: 1, start: 10, end: 50}, {id: 3, parent: 1, start: 30, end: 70}},
			[]int64{40, 20 + 10, 10 + 20}},
		{"back-to-back siblings do not overlap", []span{root, {id: 2, parent: 1, start: 10, end: 50}, {id: 3, parent: 1, start: 50, end: 70}},
			[]int64{40, 40, 20}},
		{"child clipped to the op", []span{root, {id: 2, parent: 1, start: 90, end: 150}}, []int64{90, 10}},
		{"child wholly outside the op", []span{root, {id: 2, parent: 1, start: 120, end: 150}}, []int64{100, 0}},
		{"unknown parent hangs off the op", []span{root, {id: 9, parent: 7, start: 0, end: 25}}, []int64{75, 25}},
	} {
		got := selfTimes(c.spans)
		for i := range c.want {
			if got[i] != c.want[i] {
				t.Errorf("%s: self = %v, want %v", c.name, got, c.want)
				break
			}
		}
		if sum(got) != root.dur() {
			t.Errorf("%s: self times sum to %d, want the op's %d", c.name, sum(got), root.dur())
		}
	}
	// An odd nanosecond shared by two spans must not get lost.
	got := selfTimes([]span{{id: 1, start: 0, end: 3}, {id: 2, parent: 1, start: 0, end: 3}, {id: 3, parent: 1, start: 0, end: 3}})
	if sum(got) != 3 {
		t.Errorf("shared odd nanosecond: self times %v sum to %d, want 3", got, sum(got))
	}
}

// ---------------------------------------------------------------------------
// The seams must be byte-transparent: a wrapped value returns exactly what
// the inner one does, errors included.

var errFake = errors.New("fake failure")

type fakeConn struct {
	net.Conn // nil: only Read and Write are called
	data     []byte
	err      error
	wrote    []byte
}

func (c *fakeConn) Read(p []byte) (int, error) { return copy(p, c.data), c.err }
func (c *fakeConn) Write(p []byte) (int, error) {
	c.wrote = append(c.wrote, p...)
	return len(p) - 1, c.err
}

type fakeDialer struct {
	conn net.Conn
	err  error
}

func (d fakeDialer) Dial(string) (net.Conn, error) { return d.conn, d.err }

func TestTracedConnTransparent(t *testing.T) {
	tr := newTracer()
	ct := &clientTrace{t: tr}
	inner := &fakeConn{data: []byte("reply"), err: io.ErrUnexpectedEOF}
	d := &tracedDialer{inner: fakeDialer{conn: inner}, ct: ct, svcOf: map[string]int{"a:1": svcGridFTP}}
	conn, err := d.Dial("a:1")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 16)
	if n, err := conn.Read(buf); n != 5 || err != io.ErrUnexpectedEOF || string(buf[:n]) != "reply" {
		t.Errorf("Read = %d, %v, %q; the inner conn returned 5, ErrUnexpectedEOF, reply", n, err, buf[:n])
	}
	if n, err := conn.Write([]byte("request")); n != 6 || err != io.ErrUnexpectedEOF || string(inner.wrote) != "request" {
		t.Errorf("Write = %d, %v, wrote %q; the inner conn returned 6, ErrUnexpectedEOF", n, err, inner.wrote)
	}
	if _, err := (&tracedDialer{inner: fakeDialer{err: errFake}, ct: ct}).Dial("b:2"); err != errFake {
		t.Errorf("a failed Dial returned %v, want the inner error", err)
	}
	var names []string
	for _, s := range tr.all() {
		names = append(names, spanNames[s.name]+"/"+svcNames[s.svc])
	}
	want := []string{"dial/gridftp", "conn_wait/gridftp", "conn_wait/gridftp", "dial/"}
	if len(names) != len(want) {
		t.Fatalf("spans %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Errorf("spans %v, want %v", names, want)
			break
		}
	}
	if s := tr.all(); s[1].bytes != 5 || s[1].write || s[2].bytes != 6 || !s[2].write {
		t.Errorf("conn_wait spans carry bytes/write %d/%v and %d/%v, want 5/false and 6/true", s[1].bytes, s[1].write, s[2].bytes, s[2].write)
	}
}

type fakeResolver struct {
	m   gns.Mapping
	err error
}

func (r fakeResolver) Resolve(string, string) (gns.Mapping, error) { return r.m, r.err }
func (r fakeResolver) Watch(_, _ string, since uint64, _ int64) (gns.Mapping, bool, error) {
	return r.m, since == 7, r.err
}

func TestTracedResolverTransparent(t *testing.T) {
	tr := newTracer()
	ct := &clientTrace{t: tr}
	want := gns.Mapping{Mode: gns.ModeRemote, RemoteHost: "h:1", RemotePath: "p", Version: 9}
	r := &tracedResolver{inner: fakeResolver{m: want, err: errFake}, ct: ct}
	if m, err := r.Resolve("m", "p"); m != want || err != errFake {
		t.Errorf("Resolve = %+v, %v; want the inner mapping and error", m, err)
	}
	if m, changed, err := r.Watch("m", "p", 7, 0); m != want || !changed || err != errFake {
		t.Errorf("Watch = %+v, %v, %v; want the inner values", m, changed, err)
	}
	spans := tr.all()
	if len(spans) != 1 || spans[0].name != spGNSResolve || ct.cur.Load() != 0 {
		t.Errorf("spans %+v, current %d; want one closed gns.resolve", spans, ct.cur.Load())
	}
}

func TestTracedFSTransparent(t *testing.T) {
	tr := newTracer()
	ct := &clientTrace{t: tr}
	mem := vfs.NewMemFS()
	fsys := &tracedFS{inner: mem, ct: ct}

	f, err := fsys.OpenFile("a/b", vfs.CreateTruncFlag, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := f.Write([]byte("hello world")); n != 11 || err != nil {
		t.Fatalf("Write = %d, %v", n, err)
	}
	if n, err := f.WriteAt([]byte("J"), 0); n != 1 || err != nil {
		t.Fatalf("WriteAt = %d, %v", n, err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if got, err := vfs.ReadFile(mem, "a/b"); err != nil || string(got) != "Jello world" {
		t.Fatalf("the inner FS holds %q, %v", got, err)
	}

	f, err = fsys.OpenFile("a/b", vfs.ReadOnlyFlag, 0)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 5)
	if n, err := f.Read(buf); n != 5 || err != nil || string(buf) != "Jello" {
		t.Errorf("Read = %d, %v, %q", n, err, buf)
	}
	if n, err := f.ReadAt(buf, 6); n != 5 || err != nil || string(buf) != "world" {
		t.Errorf("ReadAt = %d, %v, %q", n, err, buf)
	}
	if n, err := f.ReadAt(buf, 9); n != 2 || err != io.EOF {
		t.Errorf("short ReadAt = %d, %v; want 2, EOF", n, err)
	}
	f.Close()

	if fi, err := fsys.Stat("a/b"); err != nil || fi.Size() != 11 {
		t.Errorf("Stat = %v, %v", fi, err)
	}
	if names, err := fsys.List("a/"); err != nil || len(names) != 1 || names[0] != "a/b" {
		t.Errorf("List = %v, %v", names, err)
	}
	if _, err := fsys.OpenFile("missing", vfs.ReadOnlyFlag, 0); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("opening a missing file returned %v, want the inner not-exist error", err)
	}
	if err := fsys.Remove("a/b"); err != nil {
		t.Fatal(err)
	}
	if _, err := fsys.Stat("a/b"); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("Stat after Remove returned %v", err)
	}
	for _, s := range tr.all() {
		if s.name != spVFSCall {
			t.Fatalf("the FS seam recorded a %s span", spanNames[s.name])
		}
	}
}

func TestSpansNestUnderTheCurrentCall(t *testing.T) {
	tr := newTracer()
	ct := &clientTrace{t: tr}
	op := ct.begin(spOp, 0, false)
	open := ct.begin(spCoreOpen, 0, false)
	res := ct.begin(spGNSResolve, svcGNS, false)
	ct.leaf(ct.leafStart(), spConnWait, svcGNS, 10, true)
	ct.end(res, 0)
	ct.leaf(ct.leafStart(), spDial, svcGridFTP, 0, false)
	ct.end(open, 0)
	ct.end(op, 0)
	ct.leaf(ct.leafStart(), spConnWait, svcGridFTP, 1, false) // between ops

	spans := tr.all()
	parents := []uint32{0, 1, 2, 3, 2, 0}
	ops := []uint32{1, 1, 1, 1, 1, 0}
	for i, s := range spans {
		if s.parent != parents[i] || s.op != ops[i] {
			t.Errorf("span %d (%s): parent %d op %d, want parent %d op %d", i+1, spanNames[s.name], s.parent, s.op, parents[i], ops[i])
		}
	}
	var nilTrace *clientTrace
	nilTrace.end(nilTrace.begin(spOp, 0, false), 0) // an untraced client records nothing and must not crash
}

// ---------------------------------------------------------------------------
// BENCHMARK.json and the binary must agree.

type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

func TestBenchmarkFileMatchesBinary(t *testing.T) {
	b := readBenchmarkFile(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

	if len(b.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json has %d workloads, the binary %d", len(b.Workloads), len(workloadNames))
	}
	for i, w := range b.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the binary", i, w.Name, workloadNames[i])
		}
		if _, err := newWorkload(w.Name, 1); err != nil {
			t.Errorf("the binary cannot run workload %q: %v", w.Name, err)
		}
		if !nameRE.MatchString(w.Name) || len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %q: bad name or a why of %d characters", w.Name, len(w.Why))
		}
	}
	check := func(kind string, file, binary []metricDef, bounded bool) {
		if len(file) != len(binary) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the binary %d", kind, len(file), len(binary))
			return
		}
		seen := map[string]bool{}
		for i, f := range file {
			d := binary[i]
			if f.Name != d.Name || f.Unit != d.Unit || f.Better != d.Better || f.Bound != d.Bound {
				t.Errorf("%s metric %d: BENCHMARK.json says %+v, the binary %+v", kind, i, f, d)
			}
			if !nameRE.MatchString(f.Name) || !unitRE.MatchString(f.Unit) || (f.Better != "lower" && f.Better != "higher") {
				t.Errorf("%s metric %q: name, unit %q or direction %q out of form", kind, f.Name, f.Unit, f.Better)
			}
			if bounded && (f.Bound <= 0 || f.Bound > 0.25) {
				t.Errorf("%s metric %q: bound %v outside (0, 0.25]", kind, f.Name, f.Bound)
			}
			if seen[f.Name] {
				t.Errorf("%s metric %q is listed twice", kind, f.Name)
			}
			seen[f.Name] = true
		}
	}
	check("end_to_end", b.EndToEnd, endToEndDefs, true)
	perLayer := perLayerDefs()
	for i := range perLayer {
		perLayer[i].Layer, perLayer[i].Moves, perLayer[i].On = "", "", ""
	}
	check("per_layer", b.PerLayer, perLayer, false)
	if b.EndToEnd[0].Name != "setup_s" {
		t.Error("the contract wants a setup_s metric")
	}
	if len(b.Paths) != 1 || b.Paths[0] != "gridlab" {
		t.Errorf("paths = %v, want [gridlab]", b.Paths)
	}
}

// keysOf returns m's keys, sorted.
func keysOf[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func TestEndToEndEmitsExactlyTheDeclaredMetrics(t *testing.T) {
	sec := time.Second
	r := &runResult{warm: sec, measure: 3 * sec,
		ops:  []opRec{{start: sec, end: 2 * sec, bytes: 1e6}, {start: 2 * sec, end: 4 * sec, bytes: 2e6}},
		from: snapshot{at: sec}, to: snapshot{at: 4 * sec, clientCPU: sec}}
	got := endToEnd(r, []float64{0.4, 0.5, 0.6})
	var want []string
	for _, d := range endToEndDefs {
		want = append(want, d.Name)
		if m, ok := got[d.Name]; !ok || m.Unit != d.Unit || m.Value <= 0 {
			t.Errorf("%s: emitted %+v (present %v), declared unit %q; an end-to-end metric is never 0", d.Name, m, ok, d.Unit)
		}
	}
	sort.Strings(want)
	if g := keysOf(got); len(g) != len(want) {
		t.Errorf("endToEnd emits %v, BENCHMARK.json declares %v", g, want)
	}
	if v := got["goodput_mbps"].Value; math.Abs(v-1) > 1e-9 {
		t.Errorf("goodput = %v MB/s, want 1 (3 MB over 3 windows of 1 s)", v)
	}
	if v := got["cpu_s_per_gb"].Value; math.Abs(v-1/0.003) > 1e-6 {
		t.Errorf("cpu_s_per_gb = %v, want %v (1 CPU-s for 3 MB)", v, 1/0.003)
	}
}

// TestSmoke runs every workload briefly against real daemons, traced, and
// checks that nothing fails and that the ledger and the probes together
// set exactly the per-layer metrics BENCHMARK.json declares.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("launches the daemons")
	}
	e, err := newEnv()
	if err != nil {
		t.Fatal(err)
	}
	defer os.RemoveAll(e.runDir)
	emitted := map[string]bool{}
	layers := map[string]*ledger{}
	for i, name := range workloadNames {
		spec := runSpec{seconds: 1, warm: 200 * time.Millisecond, rounds: 1, traced: true, probes: i == 0, shrink: 16}
		r, err := runOne(e, name, 42, spec)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !r.Correct || r.Attempted < 1 {
			t.Errorf("%s: %d of %d ops failed", name, r.Failed, r.Attempted)
		}
		for k := range r.Ledger.Metrics {
			emitted[k] = true
		}
		layers[name] = r.Ledger

		spec.traced, spec.probes = false, false
		if r, err = runOne(e, name, 43, spec); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, d := range endToEndDefs {
			if r.Metrics[d.Name].Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v; it must never be 0", name, d.Name, r.Metrics[d.Name].Value)
			}
		}
		if !r.Correct {
			t.Errorf("%s untraced: %d of %d ops failed", name, r.Failed, r.Attempted)
		}
	}
	declared := map[string]bool{}
	for _, d := range perLayerDefs() {
		declared[d.Name] = true
		if !emitted[d.Name] {
			t.Errorf("per-layer metric %s is declared but no workload's traced run set it", d.Name)
		}
	}
	for k := range emitted {
		if !declared[k] {
			t.Errorf("the traced runs set %s, which BENCHMARK.json does not declare", k)
		}
	}
	for _, line := range checkSeparation(layers, false) {
		t.Log(line)
		if line[:4] == "FAIL" {
			t.Error(line)
		}
	}
	if entries, _ := os.ReadDir(e.runDir); len(entries) != 0 {
		t.Errorf("%d work directories left behind in %s", len(entries), e.runDir)
	}
}
