// Package griddles' top-level benchmarks regenerate every table of the
// paper's evaluation and measure the ablations DESIGN.md calls out.
//
// Table benchmarks run the experiment harness at 1/4 of the
// paper-calibrated scale (the orderings the paper reports survive scaling;
// cmd/benchtables runs the full scale) and report the *simulated* durations
// as custom metrics (virt-s/...), so the paper's numbers are visible in
// benchmark output. Wall-clock ns/op measures the simulator itself.
//
// Run: go test -bench=. -benchmem
package griddles

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"griddles/internal/chaos"
	"griddles/internal/climate"
	"griddles/internal/core"
	"griddles/internal/experiments"
	"griddles/internal/gns"
	"griddles/internal/gridbuffer"
	"griddles/internal/gridftp"
	"griddles/internal/mech"
	"griddles/internal/nws"
	"griddles/internal/objstore"
	"griddles/internal/obs"
	"griddles/internal/replica"
	"griddles/internal/retry"
	"griddles/internal/rpc"
	"griddles/internal/simclock"
	"griddles/internal/simnet"
	"griddles/internal/testbed"
	"griddles/internal/vfs"
	"griddles/internal/wire"
	"griddles/internal/workflow"
	"griddles/internal/xdr"
)

// benchClimate is the Table 3-5 workload at 1/4 scale.
func benchClimate() climate.Params {
	p := climate.DefaultParams()
	p.Steps /= 4
	p.Work.CCAM /= 4
	p.Work.CC2LAM /= 4
	p.Work.DARLAM /= 4
	p.ReRead = 4
	return p
}

// benchMech is the Table 2 workload at 1/4 scale.
func benchMech() mech.Params {
	p := mech.DefaultParams()
	p.FieldRows /= 4
	p.BoundaryN /= 4
	p.GrowthSites /= 4
	p.Work = mech.Works{Chammy: 2.5, Pafec: 70, MakeSF: 5, Fast: 39, Objective: 2.5}
	return p
}

var printOnce sync.Map

// printTable prints a regenerated table once per process. Benchmark tables
// run at 1/4 of the paper-calibrated scale, so the absolute paper values in
// parentheses are 4x the measured columns here; compare shapes, or run
// cmd/benchtables for the full scale.
func printTable(key string, t fmt.Stringer) {
	if _, loaded := printOnce.LoadOrStore("scale-note", true); !loaded {
		fmt.Println("NOTE: benchmark tables run at 1/4 paper scale — paper values in parentheses are full scale (4x);")
		fmt.Println("      run `go run ./cmd/benchtables -table all` for the calibrated full-scale comparison.")
		fmt.Println()
	}
	if _, loaded := printOnce.LoadOrStore(key, true); !loaded {
		fmt.Println(t)
	}
}

func BenchmarkTable2Durability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunTable2(benchMech())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			printTable("table2", experiments.Table2(rows))
			for _, r := range rows {
				b.ReportMetric(r.Total.Seconds(), fmt.Sprintf("virt-s/exp%d", r.Exp))
			}
		}
	}
}

func BenchmarkTable3Sequential(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunTable3(benchClimate(), experiments.Table3Machines)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			printTable("table3", experiments.Table3(rows))
			for _, r := range rows {
				b.ReportMetric(r.Total.Seconds(), "virt-s/"+r.Machine)
			}
		}
	}
}

func BenchmarkTable4Concurrent(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunTable4(benchClimate(), experiments.Table3Machines)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			printTable("table4", experiments.Table4(rows))
			for _, r := range rows {
				b.ReportMetric(r.Files[2].Seconds(), "virt-s/"+r.Machine+"-files")
				b.ReportMetric(r.Buffers[2].Seconds(), "virt-s/"+r.Machine+"-buffers")
			}
		}
	}
}

func BenchmarkTable5Distributed(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunTable5(benchClimate(), experiments.Table5Pairings)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			printTable("table5", experiments.Table5(rows))
			for _, r := range rows {
				key := r.Pair.Src + "-" + r.Pair.Dst
				b.ReportMetric(r.FilesDarlam.Seconds(), "virt-s/"+key+"-files")
				b.ReportMetric(r.BufDarlam.Seconds(), "virt-s/"+key+"-buffers")
			}
		}
	}
}

func BenchmarkFigure6StressField(b *testing.B) {
	p := mech.DefaultParams()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		field := mech.StressField(p.Tension, p.Shape, 256, 256, p.Extent/2)
		if mech.RenderPGM(field, 256, 256) == nil {
			b.Fatal("render failed")
		}
	}
}

func BenchmarkFigure3CacheTrace(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure3Trace(); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// Ablations (DESIGN.md §7): the design choices behind the tables.

// wanStream measures the simulated time to push `total` bytes through a
// Grid Buffer whose service sits across the given link, under a transport
// configuration.
func wanStream(b *testing.B, lat time.Duration, bw int64, blockSize, window int, connPerCall bool, total int) time.Duration {
	b.Helper()
	v := simclock.NewVirtualDefault()
	net := simnet.New(v)
	net.SetLinkBoth("w", "buf", simnet.LinkSpec{Latency: lat, Bandwidth: bw})
	net.SetWindow(testbed.WindowBytes)
	fs := vfs.NewMemFS()
	reg := gridbuffer.NewRegistry(v, fs)
	var elapsed time.Duration
	v.Run(func() {
		l, err := net.Host("buf").Listen("buf:7000")
		if err != nil {
			b.Fatal(err)
		}
		v.Go("serve", func() { gridbuffer.NewServer(reg, v).Serve(l) })
		opts := gridbuffer.Options{BlockSize: blockSize, Capacity: 1 << 20}
		done := simclock.NewWaitGroup(v)
		done.Add(1)
		v.Go("reader", func() {
			defer done.Done()
			r, err := gridbuffer.NewReader(net.Host("buf"), "buf:7000", v, "k", opts, gridbuffer.ReaderOptions{Depth: 8})
			if err != nil {
				b.Error(err)
				return
			}
			defer r.Close()
			io.Copy(io.Discard, r)
		})
		w, err := gridbuffer.NewWriter(net.Host("w"), "buf:7000", v, "k", opts,
			gridbuffer.WriterOptions{Window: window, ConnPerCall: connPerCall})
		if err != nil {
			b.Fatal(err)
		}
		start := v.Now()
		w.Write(make([]byte, total))
		w.Close()
		done.Wait()
		elapsed = v.Now().Sub(start)
	})
	return elapsed
}

// BenchmarkAblationTransport compares the SOAP-era connection-per-call
// transport against the persistent pipelined one over the AU-UK link — the
// mechanism behind the paper's Table 5 latency sensitivity.
func BenchmarkAblationTransport(b *testing.B) {
	lat, bw := testbed.LinkBetween("brecca", "bouscat")
	const total = 1 << 20
	for _, cfg := range []struct {
		name        string
		window      int
		connPerCall bool
	}{
		{"conn-per-call", 1, true},
		{"persistent-w1", 1, false},
		{"persistent-w2", 2, false},
		{"persistent-w8", 8, false},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			var virt time.Duration
			for i := 0; i < b.N; i++ {
				virt = wanStream(b, lat, bw, 4096, cfg.window, cfg.connPerCall, total)
			}
			b.ReportMetric(virt.Seconds(), "virt-s")
			b.ReportMetric(float64(total)/virt.Seconds()/1024, "virt-KB/s")
		})
	}
}

// BenchmarkAblationBlockSize sweeps the Grid Buffer block size over the
// AU-UK link (the paper: "we are investigating whether we can produce a
// version of the buffer code that is less sensitive to network latency").
func BenchmarkAblationBlockSize(b *testing.B) {
	lat, bw := testbed.LinkBetween("brecca", "bouscat")
	const total = 1 << 20
	for _, bs := range []int{1024, 4096, 16384, 65536} {
		b.Run(fmt.Sprintf("block-%d", bs), func(b *testing.B) {
			var virt time.Duration
			for i := 0; i < b.N; i++ {
				virt = wanStream(b, lat, bw, bs, 1, true, total)
			}
			b.ReportMetric(virt.Seconds(), "virt-s")
			b.ReportMetric(float64(total)/virt.Seconds()/1024, "virt-KB/s")
		})
	}
}

// BenchmarkAblationCopyStreams sweeps GridFTP parallel stripe counts on the
// high-latency link (the paper's nod to GridFTP latency hiding).
func BenchmarkAblationCopyStreams(b *testing.B) {
	lat, bw := testbed.LinkBetween("brecca", "bouscat")
	for _, streams := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("streams-%d", streams), func(b *testing.B) {
			var virt time.Duration
			for i := 0; i < b.N; i++ {
				v := simclock.NewVirtualDefault()
				net := simnet.New(v)
				net.SetLinkBoth("src", "dst", simnet.LinkSpec{Latency: lat, Bandwidth: bw})
				net.SetWindow(testbed.WindowBytes)
				srcFS := vfs.NewMemFS()
				vfs.WriteFile(srcFS, "f", make([]byte, 2<<20))
				dstFS := vfs.NewMemFS()
				v.Run(func() {
					l, err := net.Host("src").Listen("src:6000")
					if err != nil {
						b.Fatal(err)
					}
					v.Go("serve", func() { gridftp.NewServer(srcFS, v).Serve(l) })
					c := gridftp.NewClient(net.Host("dst"), "src:6000", v)
					start := v.Now()
					if _, err := c.CopyIn("f", dstFS, "f", streams); err != nil {
						b.Fatal(err)
					}
					virt = v.Now().Sub(start)
				})
			}
			b.ReportMetric(virt.Seconds(), "virt-s")
		})
	}
}

// BenchmarkAblationBufferPlacement compares the buffer service at the
// reader end (the paper's default) versus the writer end across the AU-UK
// link, for the climate workload's cc2lam->darlam stream.
func BenchmarkAblationBufferPlacement(b *testing.B) {
	p := benchClimate()
	for _, placement := range []struct {
		name string
		at   string
	}{
		{"reader-end", "bouscat"},
		{"writer-end", "brecca"},
	} {
		b.Run(placement.name, func(b *testing.B) {
			var virt time.Duration
			for i := 0; i < b.N; i++ {
				env := experiments.NewEnv()
				env.Runner.CacheFiles = climate.CacheFiles()
				env.Runner.BufferAt = map[string]string{
					climate.FileCCAMOut: "brecca",
					climate.FileLamBnd:  placement.at,
				}
				rep, err := env.Run(climate.WorkflowSpec(p, climate.Split("brecca", "bouscat")),
					workflow.CouplingBuffers, nil)
				if err != nil {
					b.Fatal(err)
				}
				virt = rep.Total
			}
			b.ReportMetric(virt.Seconds(), "virt-s")
		})
	}
}

// BenchmarkAblationSOAPWorkflow runs the whole climate workflow over the
// SOAP endpoint versus the binary protocol (both connection-per-call for
// the binary side's WAN blocks), quantifying the envelope overhead at
// workflow scale.
func BenchmarkAblationSOAPWorkflow(b *testing.B) {
	p := benchClimate()
	for _, cfg := range []struct {
		name string
		soap bool
	}{
		{"binary", false},
		{"soap", true},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			var virt time.Duration
			for i := 0; i < b.N; i++ {
				env := experiments.NewEnv()
				env.Runner.CacheFiles = climate.CacheFiles()
				if cfg.soap {
					env.Runner.FM.Buffer.Transport = core.TransportSOAP
				}
				rep, err := env.Run(climate.WorkflowSpec(p, climate.Split("brecca", "dione")),
					workflow.CouplingBuffers, nil)
				if err != nil {
					b.Fatal(err)
				}
				virt = rep.Total
			}
			b.ReportMetric(virt.Seconds(), "virt-s")
		})
	}
}

// BenchmarkAblationAutoAssign compares the paper's hand placement of the
// durability pipeline (experiment 3) against the AutoAssign scheduler.
func BenchmarkAblationAutoAssign(b *testing.B) {
	for _, cfg := range []struct {
		name string
		auto bool
	}{
		{"paper-placement", false},
		{"auto-assign", true},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			var virt time.Duration
			for i := 0; i < b.N; i++ {
				params := benchMech()
				env := experiments.NewEnv()
				env.Runner.BlockSize = 64 * 1024
				assign := mech.Experiment3()
				spec := mech.PipelineSpec(params, assign)
				if cfg.auto {
					for j := range spec.Components {
						spec.Components[j].Machine = ""
					}
					if err := workflow.AutoAssign(spec, env.Grid, workflow.CouplingBuffers); err != nil {
						b.Fatal(err)
					}
					// Setup must follow the chosen placement.
					assign = mech.Assignment{
						Chammy: spec.Components[0].Machine, Pafec: spec.Components[1].Machine,
						MakeSF: spec.Components[2].Machine, Fast: spec.Components[3].Machine,
						Objective: spec.Components[4].Machine,
					}
				}
				setup := func() error {
					return mech.Setup(func(m string) vfs.FS { return env.Grid.Machine(m).RawFS() }, assign, params)
				}
				rep, err := env.Run(spec, workflow.CouplingBuffers, setup)
				if err != nil {
					b.Fatal(err)
				}
				virt = rep.Total
			}
			b.ReportMetric(virt.Seconds(), "virt-s")
		})
	}
}

// ---------------------------------------------------------------------------
// Substrate micro-benchmarks (real wall time).

func BenchmarkWireFrameRoundTrip(b *testing.B) {
	payload := make([]byte, 4096)
	var buf bytes.Buffer
	b.ReportAllocs()
	b.SetBytes(4096)
	for i := 0; i < b.N; i++ {
		buf.Reset()
		wire.WriteFrame(&buf, 3, payload)
		if _, _, err := wire.ReadFrame(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

// benchNumericRecords builds n fixed-layout climate-style records
// (timestamp, station id, two float64 readings) in LittleEndian row form —
// the Table 3/5 numeric payload shape the wire-codec gates price.
func benchNumericRecords(n int) (xdr.Schema, []byte) {
	schema := xdr.Schema{Fields: []xdr.Field{
		{Name: "t", Kind: xdr.KindInt64},
		{Name: "station", Kind: xdr.KindUint32},
		{Name: "temp", Kind: xdr.KindFloat64},
		{Name: "pressure", Kind: xdr.KindFloat64},
	}}
	buf := make([]byte, 0, n*schema.Size())
	for i := 0; i < n; i++ {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(1_700_000_000+int64(i)*60))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(i%13))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(15.0+math.Sin(float64(i)/100)))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(1013.0+math.Cos(float64(i)/150)))
	}
	return schema, buf
}

// countDialer tallies every byte crossing the connections it opens, so the
// wire-codec benchmark reports exact (deterministic) bytes-on-wire.
type countDialer struct {
	d       gridftp.Dialer
	in, out atomic.Int64
}

func (cd *countDialer) Dial(addr string) (net.Conn, error) {
	conn, err := cd.d.Dial(addr)
	if err != nil {
		return nil, err
	}
	return &countConn{cd: cd, Conn: conn}, nil
}

type countConn struct {
	cd *countDialer
	net.Conn
}

func (cc *countConn) Read(p []byte) (int, error) {
	n, err := cc.Conn.Read(p)
	cc.cd.in.Add(int64(n))
	return n, err
}

func (cc *countConn) Write(p []byte) (int, error) {
	n, err := cc.Conn.Write(p)
	cc.cd.out.Add(int64(n))
	return n, err
}

// BenchmarkWireBytesSlowLink prices the PR 9 tentpole on the calibrated
// monash<->vpac WAN link (2 ms, 460 KB/s): one climate numeric stream
// fetched raw, with negotiated lzb block compression, and with lzb plus the
// columnar XDR transform. The bytes/* metrics are the exact simulated wire
// volume (deterministic, strictly gated, lower is better); virt-ms/* are
// the simulated transfer times. Inline gates enforce the acceptance bar:
// >=30% fewer bytes on wire and a faster transfer for columnar+lzb, and a
// raw-configured client byte-identical to a codec-less one (which is why
// the negotiated encoding cannot regress LAN paths — the FM keeps them raw,
// and raw sends exactly the historical frames).
func BenchmarkWireBytesSlowLink(b *testing.B) {
	schema, payload := benchNumericRecords(8000)
	run := func(codec string, columnar bool) (wireBytes int64, el time.Duration) {
		v := simclock.NewVirtualDefault()
		n := simnet.New(v)
		n.SetLinkBoth("app", "srv", simnet.LinkSpec{Latency: 2 * time.Millisecond, Bandwidth: 460_000})
		fs := vfs.NewMemFS()
		vfs.WriteFile(fs, "clim.dat", payload)
		cd := &countDialer{d: n.Host("app")}
		v.Run(func() {
			l, err := n.Host("srv").Listen("srv:6000")
			if err != nil {
				b.Fatal(err)
			}
			v.Go("ftp-server", func() { gridftp.NewServer(fs, v).Serve(l) })
			c := gridftp.NewClient(cd, "srv:6000", v)
			if codec != "" {
				c.SetCodec(codec)
			}
			if columnar {
				if err := c.RegisterSchema("clim.dat", schema, binary.LittleEndian); err != nil {
					b.Fatal(err)
				}
			}
			var got bytes.Buffer
			start := v.Now()
			if _, err := c.Fetch("clim.dat", 0, -1, &got); err != nil {
				b.Fatal(err)
			}
			el = v.Now().Sub(start)
			if !bytes.Equal(got.Bytes(), payload) {
				b.Fatal("fetch corrupted the records")
			}
		})
		return cd.in.Load() + cd.out.Load(), el
	}
	b.ReportAllocs()
	b.SetBytes(int64(4 * len(payload)))
	var baseB, rawB, lzbB, colB int64
	var baseT, rawT, lzbT, colT time.Duration
	for i := 0; i < b.N; i++ {
		baseB, baseT = run("", false)
		rawB, rawT = run("raw", false)
		lzbB, lzbT = run("lzb", false)
		colB, colT = run("lzb", true)
	}
	b.ReportMetric(float64(rawB), "bytes/raw-wire")
	b.ReportMetric(float64(lzbB), "bytes/lzb-wire")
	b.ReportMetric(float64(colB), "bytes/columnar-wire")
	b.ReportMetric(rawT.Seconds()*1e3, "virt-ms/raw")
	b.ReportMetric(lzbT.Seconds()*1e3, "virt-ms/lzb")
	b.ReportMetric(colT.Seconds()*1e3, "virt-ms/columnar")
	if rawB != baseB || rawT != baseT {
		b.Errorf("explicit raw differs from codec-less client (%d vs %d bytes, %v vs %v): negotiation is not free when off",
			rawB, baseB, rawT, baseT)
	}
	if lzbB >= rawB {
		b.Errorf("lzb moved %d bytes, raw %d: compression never engaged", lzbB, rawB)
	}
	if float64(colB) > 0.70*float64(rawB) {
		b.Errorf("columnar+lzb moved %d bytes vs %d raw (%.1f%%), acceptance bar is >=30%% savings",
			colB, rawB, 100*float64(colB)/float64(rawB))
	}
	if colT >= rawT {
		b.Errorf("columnar+lzb transfer took %v, raw %v: no virtual-time win on the slow link", colT, rawT)
	}
}

// BenchmarkColumnarTranslate compares §3.3 byte-order translation in row
// form (xdr.Translate, each multi-byte field swapped in place) against the
// same records held in columnar form (xdr.TranslateColumnar), where whole
// byte planes move together. Each iteration translates LE->BE and back so
// the data returns to its starting order.
func BenchmarkColumnarTranslate(b *testing.B) {
	schema, payload := benchNumericRecords(8192)
	b.Run("row", func(b *testing.B) {
		data := append([]byte(nil), payload...)
		b.ReportAllocs()
		b.SetBytes(int64(2 * len(payload)))
		for i := 0; i < b.N; i++ {
			if err := xdr.Translate(data, schema, binary.LittleEndian, binary.BigEndian); err != nil {
				b.Fatal(err)
			}
			if err := xdr.Translate(data, schema, binary.BigEndian, binary.LittleEndian); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("columnar", func(b *testing.B) {
		enc, err := xdr.EncodeColumnar(nil, payload, schema, binary.LittleEndian)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.SetBytes(int64(2 * len(payload)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := xdr.TranslateColumnar(enc, schema, binary.LittleEndian, binary.BigEndian); err != nil {
				b.Fatal(err)
			}
			if err := xdr.TranslateColumnar(enc, schema, binary.BigEndian, binary.LittleEndian); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkMemFSWrite(b *testing.B) {
	fs := vfs.NewMemFS()
	data := make([]byte, 64<<10)
	b.ReportAllocs()
	b.SetBytes(int64(len(data)))
	f, _ := fs.OpenFile("bench", vfs.ReadWriteFlag, 0o644)
	defer f.Close()
	for i := 0; i < b.N; i++ {
		if _, err := f.WriteAt(data, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkXDRTranslate(b *testing.B) {
	schema := xdr.Schema{Fields: []xdr.Field{
		{Name: "step", Kind: xdr.KindInt32},
		{Name: "vals", Kind: xdr.KindFloat64, Count: 126},
	}}
	data := make([]byte, schema.Size()*64)
	b.ReportAllocs()
	b.SetBytes(int64(len(data)))
	for i := 0; i < b.N; i++ {
		if err := xdr.ToNeutral(data, schema, binary.LittleEndian); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGridBufferCore(b *testing.B) {
	buf := gridbuffer.NewBuffer(simclock.Real{}, "bench", gridbuffer.Options{})
	id := buf.Attach()
	block := make([]byte, 4096)
	b.ReportAllocs()
	b.SetBytes(4096)
	for i := 0; i < b.N; i++ {
		idx := int64(i)
		if err := buf.Put(idx, block); err != nil {
			b.Fatal(err)
		}
		if _, _, err := buf.Get(id, idx); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSimnetThroughput(b *testing.B) {
	// Simulator efficiency: virtual bytes moved per real second.
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		v := simclock.NewVirtualDefault()
		net := simnet.New(v)
		net.SetLinkBoth("a", "b", simnet.LinkSpec{Latency: time.Millisecond, Bandwidth: 10 << 20})
		v.Run(func() {
			l, _ := net.Host("b").Listen("b:9")
			done := simclock.NewWaitGroup(v)
			done.Add(1)
			v.Go("sink", func() {
				defer done.Done()
				c, _ := l.Accept()
				io.Copy(io.Discard, c)
			})
			c, _ := net.Host("a").Dial("b:9")
			c.Write(make([]byte, 1<<20))
			c.Close()
			done.Wait()
		})
	}
	b.SetBytes(1 << 20)
}

// fanOutStream pushes four concurrent writer->reader streams through one
// Grid Buffer service across the AU-UK link and reports the simulated time
// for all four to drain. The transport configuration selects the protocol
// generation: the pre-batching shape is a connection per block with a
// single-request reader pipeline; the pipelined shape keeps a deep PUT
// window and a deep GET window outstanding on persistent connections.
func fanOutStream(tb testing.TB, depth, window int, connPerCall bool) time.Duration {
	tb.Helper()
	const streams = 4
	const total = 1 << 20 // bytes per stream
	lat, bw := testbed.LinkBetween("brecca", "bouscat")
	v := simclock.NewVirtualDefault()
	net := simnet.New(v)
	for i := 0; i < streams; i++ {
		net.SetLinkBoth(fmt.Sprintf("w%d", i), "buf", simnet.LinkSpec{Latency: lat, Bandwidth: bw})
		net.SetLinkBoth(fmt.Sprintf("r%d", i), "buf", simnet.LinkSpec{Latency: lat, Bandwidth: bw})
	}
	net.SetWindow(testbed.WindowBytes)
	reg := gridbuffer.NewRegistry(v, vfs.NewMemFS())
	var elapsed time.Duration
	v.Run(func() {
		l, err := net.Host("buf").Listen("buf:7000")
		if err != nil {
			tb.Fatal(err)
		}
		v.Go("serve", func() { gridbuffer.NewServer(reg, v).Serve(l) })
		opts := gridbuffer.Options{BlockSize: 4096, Capacity: 256}
		start := v.Now()
		done := simclock.NewWaitGroup(v)
		for i := 0; i < streams; i++ {
			i := i
			key := fmt.Sprintf("fan/%d", i)
			done.Add(2)
			v.Go(fmt.Sprintf("reader-%d", i), func() {
				defer done.Done()
				r, err := gridbuffer.NewReader(net.Host(fmt.Sprintf("r%d", i)), "buf:7000", v, key,
					opts, gridbuffer.ReaderOptions{Depth: depth})
				if err != nil {
					tb.Error(err)
					return
				}
				defer r.Close()
				if n, _ := io.Copy(io.Discard, r); n != total {
					tb.Errorf("stream %d: read %d of %d bytes", i, n, total)
				}
			})
			v.Go(fmt.Sprintf("writer-%d", i), func() {
				defer done.Done()
				w, err := gridbuffer.NewWriter(net.Host(fmt.Sprintf("w%d", i)), "buf:7000", v, key,
					opts, gridbuffer.WriterOptions{Window: window, ConnPerCall: connPerCall})
				if err != nil {
					tb.Error(err)
					return
				}
				w.Write(make([]byte, total))
				if err := w.Close(); err != nil {
					tb.Error(err)
				}
			})
		}
		done.Wait()
		elapsed = v.Now().Sub(start)
	})
	return elapsed
}

// BenchmarkGridBufferFanOut is the tentpole's headline number: 4 writers and
// 4 readers through one buffer service, pre-batching protocol versus the
// pipelined one.
func BenchmarkGridBufferFanOut(b *testing.B) {
	for _, cfg := range []struct {
		name          string
		depth, window int
		connPerCall   bool
	}{
		{"pre-batching", 1, 1, true},
		{"pipelined", 8, 32, false},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			var virt time.Duration
			for i := 0; i < b.N; i++ {
				virt = fanOutStream(b, cfg.depth, cfg.window, cfg.connPerCall)
			}
			b.ReportMetric(virt.Seconds(), "virt-s")
			b.ReportMetric(4/virt.Seconds(), "virt-MB/s")
		})
	}
}

// TestFanOutSpeedup pins the acceptance floor: the pipelined protocol moves
// the 4x4 fan-out at least twice as fast (simulated clock) as the
// pre-batching one.
func TestFanOutSpeedup(t *testing.T) {
	old := fanOutStream(t, 1, 1, true)
	new_ := fanOutStream(t, 8, 32, false)
	t.Logf("fan-out 4x4: pre-batching %v, pipelined %v (%.1fx)",
		old, new_, old.Seconds()/new_.Seconds())
	if new_*2 > old {
		t.Errorf("pipelined fan-out %v is not 2x faster than pre-batching %v", new_, old)
	}
}

// writeCounter counts the Write calls on the connections it wraps: the
// socket writes (syscalls, on a real network) a transport pays.
type writeCounter struct{ n atomic.Int64 }

type countedConn struct {
	net.Conn
	c *writeCounter
}

func (c countedConn) Write(p []byte) (int, error) {
	c.c.n.Add(1)
	return c.Conn.Write(p)
}

type countedListener struct {
	net.Listener
	c *writeCounter
}

func (l countedListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countedConn{conn, l.c}, nil
}

type countedTCPDialer struct{ c *writeCounter }

func (d countedTCPDialer) Dial(addr string) (net.Conn, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return countedConn{conn, d.c}, nil
}

// BenchmarkLayerGridBufferLoopback4K is the first Layer/* entry: the Grid
// Buffer binary transport alone — bare NewWriter/NewReader endpoints and an
// in-process server, no FM, no GNS — over real loopback TCP on the wall
// clock, moving 16 MiB per op in the paper's 4 KiB writes. Besides MB/s it
// reports connwrites/MB, every socket write at all three endpoints per MiB
// of payload: the cost the flush-before-block rule exists to bound.
func BenchmarkLayerGridBufferLoopback4K(b *testing.B) {
	const total = 16 << 20
	clock := simclock.Real{}
	var writes writeCounter
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	reg := gridbuffer.NewRegistry(clock, nil)
	go gridbuffer.NewServer(reg, clock).Serve(countedListener{l, &writes})
	dialer, addr := countedTCPDialer{&writes}, l.Addr().String()
	record := make([]byte, 4096)
	b.SetBytes(total)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key := fmt.Sprintf("layer/%d", i)
		errc := make(chan error, 1)
		go func() {
			r, err := gridbuffer.NewReader(dialer, addr, clock, key, gridbuffer.Options{}, gridbuffer.ReaderOptions{})
			if err != nil {
				errc <- err
				return
			}
			n, err := io.Copy(io.Discard, r)
			r.Close()
			if err == nil && n != total {
				err = fmt.Errorf("read %d of %d bytes", n, total)
			}
			errc <- err
		}()
		w, err := gridbuffer.NewWriter(dialer, addr, clock, key, gridbuffer.Options{}, gridbuffer.WriterOptions{})
		if err != nil {
			b.Fatal(err)
		}
		for off := 0; off < total; off += len(record) {
			if _, err := w.Write(record); err != nil {
				b.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			b.Fatal(err)
		}
		if err := <-errc; err != nil {
			b.Fatal(err)
		}
		reg.Drop(key)
	}
	b.ReportMetric(float64(writes.n.Load())/float64(b.N)/(total>>20), "connwrites/MB")
}

// BenchmarkLayerGridFTPLoopbackWrite4K is the second Layer/* entry: the
// remote block-write path alone — a bare Client.Open handle against an
// in-process server, no FM, no GNS — over real loopback TCP on the wall
// clock, overwriting 16 MiB per op in the paper's 4 KiB writes. Besides MB/s
// it reports connwrites/MB, every socket write at both endpoints per MiB of
// payload: the cost the handle's dirty run exists to bound.
func BenchmarkLayerGridFTPLoopbackWrite4K(b *testing.B) {
	const total = 16 << 20
	clock := simclock.Real{}
	var writes writeCounter
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	// Pre-sized, so every op is an in-place overwrite and MemFS growth is
	// not what gets timed.
	fs := vfs.NewMemFS()
	if err := vfs.WriteFile(fs, "layer.dat", make([]byte, total)); err != nil {
		b.Fatal(err)
	}
	go gridftp.NewServer(fs, clock).Serve(countedListener{l, &writes})
	client := gridftp.NewClient(countedTCPDialer{&writes}, l.Addr().String(), clock)
	defer client.Close()
	record := make([]byte, 4096)
	b.SetBytes(total)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := client.Open("layer.dat", os.O_WRONLY)
		if err != nil {
			b.Fatal(err)
		}
		for off := 0; off < total; off += len(record) {
			if _, err := f.Write(record); err != nil {
				b.Fatal(err)
			}
		}
		if err := f.Close(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if size, _, err := client.Stat("layer.dat"); err != nil || size != total {
		b.Fatalf("server file is %d bytes (err=%v), want %d", size, err, total)
	}
	b.ReportMetric(float64(writes.n.Load())/float64(b.N)/(total>>20), "connwrites/MB")
}

// BenchmarkLayerRPCLoopbackRoundTrip is the third Layer/* entry: the shared
// RPC shell alone — rpc.Serve and rpc.ServeConn around an echo handler,
// rpc.Conn in front of it, no service — over real loopback TCP on the wall
// clock, one 64-byte request and 64-byte reply per op. Its ns/op is the floor
// under every pooled-connection call (a GNS resolve, a block read), its
// allocs/op what the shell itself costs both ends, and connwrites/op the
// socket writes of both: one per request, one per reply.
func BenchmarkLayerRPCLoopbackRoundTrip(b *testing.B) {
	const msgEcho, msgEchoResp = 1, 2
	clock := simclock.Real{}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	h := rpc.Handler{Dispatch: func(w io.Writer, _ *bufio.Reader, _ uint8, payload []byte) error {
		return wire.WriteFrame(w, msgEchoResp, payload)
	}}
	var writes writeCounter
	go rpc.Serve(countedListener{l, &writes}, clock, "bench-conn", nil, func(conn net.Conn) { rpc.ServeConn(conn, nil, h) })
	c := rpc.NewConn("bench", countedTCPDialer{&writes}, l.Addr().String(), clock)
	defer c.Close()
	req := make([]byte, 64)
	call := func() {
		if typ, resp, err := c.Call(msgEcho, req); err != nil || typ != msgEchoResp || len(resp) != len(req) {
			b.Fatalf("echo = %d, %d bytes, %v", typ, len(resp), err)
		}
	}
	call() // dial outside the timed region
	writes.n.Store(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		call()
	}
	b.ReportMetric(float64(writes.n.Load())/float64(b.N), "connwrites/op")
}

// BenchmarkLayerFMOpenReadClose is the fourth Layer/* entry: the File
// Multiplexer's per-OPEN path alone — one OpenFile, one 4 KiB read (write,
// for the buffer: a read would need a second handle), one Close, through
// core.New against an in-process GNS store and in-process servers — over
// real loopback TCP on the wall clock, per mechanism. Its allocs/op is what
// binding, the handle and its close cost on top of the transport; it uses
// only exported API, so the same file runs against any commit.
func BenchmarkLayerFMOpenReadClose(b *testing.B) {
	clock := simclock.Real{}
	serve := func(run func(net.Listener)) string {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { l.Close() })
		go run(l)
		return l.Addr().String()
	}
	record := make([]byte, 4096)
	remoteFS := vfs.NewMemFS()
	if err := vfs.WriteFile(remoteFS, "layer.dat", record); err != nil {
		b.Fatal(err)
	}
	ftpAddr := serve(gridftp.NewServer(remoteFS, clock).Serve)
	reg := gridbuffer.NewRegistry(clock, nil)
	bufAddr := serve(gridbuffer.NewServer(reg, clock).Serve)
	objects := objstore.NewStore()
	objects.Put("layer.dat", record)
	objAddr := serve(objstore.NewServer(objects, clock).Serve)

	localFS := vfs.NewMemFS()
	if err := vfs.WriteFile(localFS, "local.dat", record); err != nil {
		b.Fatal(err)
	}
	store := gns.NewStore(clock)
	store.Set("app", "local", gns.Mapping{Mode: gns.ModeLocal, LocalPath: "local.dat"})
	store.Set("app", "copy", gns.Mapping{Mode: gns.ModeCopy, RemoteHost: ftpAddr, RemotePath: "layer.dat", LocalPath: "staged.dat"})
	store.Set("app", "remote", gns.Mapping{Mode: gns.ModeRemote, RemoteHost: ftpAddr, RemotePath: "layer.dat"})
	store.Set("app", "buffer", gns.Mapping{Mode: gns.ModeBuffer, BufferHost: bufAddr, BufferKey: "layer"})
	store.Set("app", "objstore", gns.Mapping{Mode: gns.ModeObject, RemoteHost: objAddr, RemotePath: "layer.dat"})
	fm, err := core.New(core.Config{Machine: "app", Clock: clock, FS: localFS, Dialer: countedTCPDialer{new(writeCounter)}, GNS: store})
	if err != nil {
		b.Fatal(err)
	}
	defer fm.Close()

	for _, scheme := range []string{"local", "copy", "remote", "buffer", "objstore"} {
		flag, io4k := os.O_RDONLY, func(f core.File) (int, error) { return io.ReadFull(f, record) }
		if scheme == "buffer" {
			flag, io4k = os.O_WRONLY, func(f core.File) (int, error) { return f.Write(record) }
		}
		op := func(b *testing.B) {
			f, err := fm.OpenFile(scheme, flag, 0o644)
			if err != nil {
				b.Fatal(err)
			}
			if n, err := io4k(f); err != nil || n != len(record) {
				b.Fatalf("%s: moved %d bytes, %v", scheme, n, err)
			}
			if err := f.Close(); err != nil {
				b.Fatal(err)
			}
			if scheme == "buffer" {
				reg.Drop("layer")
			}
		}
		b.Run(scheme, func(b *testing.B) {
			op(b) // dial the pooled connections outside the timed region
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				op(b)
			}
		})
	}
}

// dialCountingDialer counts the connections a client opens besides the
// socket writes made on them.
type dialCountingDialer struct {
	countedTCPDialer
	dials *atomic.Int64
}

func (d dialCountingDialer) Dial(addr string) (net.Conn, error) {
	d.dials.Add(1)
	return d.countedTCPDialer.Dial(addr)
}

// BenchmarkLayerBulkStreamLoopback is the fifth Layer/* entry: the bulk data
// channel alone — one whole-file download and one upload per service through
// the exported client against an in-process server, no FM, no GNS — over real
// loopback TCP on the wall clock, 1 MiB per op. Besides MB/s it reports what
// setting a stream up costs: allocs/op (both ends), dials/op, and connwrites/MB,
// every socket write at both endpoints per MiB of payload. It uses only
// exported API, so the same file runs against any commit.
func BenchmarkLayerBulkStreamLoopback(b *testing.B) {
	const total = 1 << 20
	clock := simclock.Real{}
	body := make([]byte, total)
	for i := range body {
		body[i] = byte(i % 251)
	}
	var writes writeCounter
	var dials atomic.Int64
	dialer := dialCountingDialer{countedTCPDialer{&writes}, &dials}
	serve := func(run func(net.Listener)) string {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { l.Close() })
		go run(countedListener{l, &writes})
		return l.Addr().String()
	}

	fs := vfs.NewMemFS()
	if err := vfs.WriteFile(fs, "layer.dat", body); err != nil {
		b.Fatal(err)
	}
	ftp := gridftp.NewClient(dialer, serve(gridftp.NewServer(fs, clock).Serve), clock)
	defer ftp.Close()
	objects := objstore.NewStore()
	objects.PutBytes("layer.dat", body)
	obj := objstore.NewClient(dialer, serve(objstore.NewServer(objects, clock).Serve), clock)
	defer obj.Close()

	src := bytes.NewReader(nil)
	arms := []struct {
		name string
		op   func() (int64, error)
	}{
		{"gridftp/get", func() (int64, error) { return ftp.Fetch("layer.dat", 0, -1, io.Discard) }},
		{"gridftp/put", func() (int64, error) { src.Reset(body); return ftp.Put("up.dat", src) }},
		{"objstore/get", func() (int64, error) { n, _, err := obj.Get("layer.dat", 0, -1, io.Discard); return n, err }},
		{"objstore/put", func() (int64, error) { src.Reset(body); return obj.Put("up.dat", src) }},
	}
	for _, arm := range arms {
		op := func(b *testing.B) {
			if n, err := arm.op(); err != nil || n != total {
				b.Fatalf("moved %d bytes, %v", n, err)
			}
		}
		b.Run(arm.name, func(b *testing.B) {
			op(b) // warm the pools and the upload target outside the timed region
			writes.n.Store(0)
			dials.Store(0)
			b.SetBytes(total)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				op(b)
			}
			b.ReportMetric(float64(dials.Load())/float64(b.N), "dials/op")
			b.ReportMetric(float64(writes.n.Load())/float64(b.N)/(total>>20), "connwrites/MB")
		})
	}
}

// BenchmarkLayerObjstoreLoopbackGet64K is the sixth Layer/* entry: mechanism
// 7's read path alone — one OPEN, a 16 MiB object read to EOF in 64 KiB
// calls, one Close, through core.New against an in-process GNS store and an
// in-process objstore.Server — over real loopback TCP on the wall clock. It is
// gridlab's file_read share of mechanism 7 without the processes around it.
// Besides MB/s and allocs/op (both ends) it reports dials/op and
// connwrites/MB, every socket write at both endpoints per MiB of payload. It
// uses only exported API, so the same file runs against any commit.
func BenchmarkLayerObjstoreLoopbackGet64K(b *testing.B) {
	const total = 16 << 20
	clock := simclock.Real{}
	body := make([]byte, total)
	for i := range body {
		body[i] = byte(i % 251)
	}
	var writes writeCounter
	var dials atomic.Int64
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	objects := objstore.NewStore()
	objects.Put("layer.dat", body)
	go objstore.NewServer(objects, clock).Serve(countedListener{l, &writes})
	store := gns.NewStore(clock)
	store.Set("app", "object", gns.Mapping{Mode: gns.ModeObject, RemoteHost: l.Addr().String(), RemotePath: "layer.dat"})
	fm, err := core.New(core.Config{Machine: "app", Clock: clock, FS: vfs.NewMemFS(), Dialer: dialCountingDialer{countedTCPDialer{&writes}, &dials}, GNS: store})
	if err != nil {
		b.Fatal(err)
	}
	defer fm.Close()
	call := make([]byte, 64<<10)
	op := func() {
		f, err := fm.Open("object")
		if err != nil {
			b.Fatal(err)
		}
		var n int64
		for {
			c, err := f.Read(call)
			n += int64(c)
			if err == io.EOF {
				break
			}
			if err != nil {
				b.Fatal(err)
			}
		}
		if err := f.Close(); err != nil || n != total {
			b.Fatalf("read %d bytes, close: %v", n, err)
		}
	}
	op() // warm the pools outside the timed region
	writes.n.Store(0)
	dials.Store(0)
	b.SetBytes(total)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
	b.ReportMetric(float64(dials.Load())/float64(b.N), "dials/op")
	b.ReportMetric(float64(writes.n.Load())/float64(b.N)/(total>>20), "connwrites/MB")
}

// BenchmarkLayerGridFTPLoopbackRead64K is the twin of
// BenchmarkLayerObjstoreLoopbackGet64K for mechanism 3: one OPEN, a 16 MiB
// file read to EOF in 64 KiB calls through the handle's read-ahead window,
// one Close, through core.New against an in-process GNS store and an
// in-process gridftp.Server, over real loopback TCP on the wall clock. It
// reports MB/s, allocs/op (both ends), dials/op and connwrites/MB.
func BenchmarkLayerGridFTPLoopbackRead64K(b *testing.B) {
	benchGridFTPLayer(b, vfs.NewMemFS(), gns.ModeRemote)
}

// BenchmarkLayerGridFTPStageIn is mechanism 2 on the same rig: every op
// stages the 16 MiB file into the same local path on a real directory
// (vfs.OSFS), reads the staged copy to EOF in 64 KiB calls and closes it. It
// is what a re-staged file costs the local file system on top of the bytes.
func BenchmarkLayerGridFTPStageIn(b *testing.B) {
	benchGridFTPLayer(b, vfs.NewOSFS(b.TempDir()), gns.ModeCopy)
}

func benchGridFTPLayer(b *testing.B, local vfs.FS, mode gns.Mode) {
	const total = 16 << 20
	clock := simclock.Real{}
	body := make([]byte, total)
	for i := range body {
		body[i] = byte(i % 251)
	}
	var writes writeCounter
	var dials atomic.Int64
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	remote := vfs.NewMemFS()
	if err := vfs.WriteFile(remote, "layer.dat", body); err != nil {
		b.Fatal(err)
	}
	go gridftp.NewServer(remote, clock).Serve(countedListener{l, &writes})
	store := gns.NewStore(clock)
	store.Set("app", "file", gns.Mapping{Mode: mode, RemoteHost: l.Addr().String(), RemotePath: "layer.dat", LocalPath: "stage/layer.dat"})
	fm, err := core.New(core.Config{Machine: "app", Clock: clock, FS: local, Dialer: dialCountingDialer{countedTCPDialer{&writes}, &dials}, GNS: store})
	if err != nil {
		b.Fatal(err)
	}
	defer fm.Close()
	call := make([]byte, 64<<10)
	op := func() {
		f, err := fm.Open("file")
		if err != nil {
			b.Fatal(err)
		}
		var n int64
		for {
			c, err := f.Read(call)
			n += int64(c)
			if err == io.EOF {
				break
			}
			if err != nil {
				b.Fatal(err)
			}
		}
		if err := f.Close(); err != nil || n != total {
			b.Fatalf("read %d bytes, close: %v", n, err)
		}
	}
	op() // warm the pools (and stage the first copy) outside the timed region
	writes.n.Store(0)
	dials.Store(0)
	b.SetBytes(total)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
	b.ReportMetric(float64(dials.Load())/float64(b.N), "dials/op")
	b.ReportMetric(float64(writes.n.Load())/float64(b.N)/(total>>20), "connwrites/MB")
}

// BenchmarkLayerSimKernel is the simulator kernel's Layer/* entry: wall time
// and allocations per virtual event, where an event is a Sleep ending or a
// Cond wait ending. Eight pairs of registered goroutines each play 1000
// rounds: one sleeps a virtual millisecond and signals, the other waits on
// the Cond with a deadline it never reaches. Every Table row, chaos cell and
// golden table pays this cost per event; its allocs/event is 0 in steady
// state, so what it reports at -benchtime 1x is the clock's warm-up spread
// over the op.
func BenchmarkLayerSimKernel(b *testing.B) {
	const pairs, rounds = 8, 1000
	var events int64
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := simclock.NewVirtualDefault()
		v.Run(func() {
			done := simclock.NewWaitGroup(v)
			waits := make([]int64, pairs)
			for p := 0; p < pairs; p++ {
				var mu sync.Mutex
				cond := v.NewCond(&mu)
				turn := 0
				done.Add(2)
				v.Go("ping", func() {
					defer done.Done()
					for r := 0; r < rounds; r++ {
						v.Sleep(time.Millisecond)
						mu.Lock()
						turn++
						cond.Signal()
						mu.Unlock()
					}
				})
				v.Go("pong", func() {
					defer done.Done()
					mu.Lock()
					defer mu.Unlock()
					for seen := 0; seen < rounds; seen = turn {
						for turn == seen {
							cond.WaitTimeout(time.Second)
							waits[p]++
						}
					}
				})
			}
			done.Wait()
			events += pairs * rounds
			for _, n := range waits {
				events += n
			}
		})
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(events), "allocs/event")
}

// BenchmarkFMReReadCache prices the FM block cache on a remote re-read: a
// mode-3 consumer reads a 2 MiB file twice over the monash<->vpac-shaped
// link, cache off versus on. With the cache the second pass is memory-only.
func BenchmarkFMReReadCache(b *testing.B) {
	const size = 2 << 20
	run := func(cacheBytes int64) time.Duration {
		v := simclock.NewVirtualDefault()
		n := simnet.New(v)
		n.SetLinkBoth("app", "srv", simnet.LinkSpec{Latency: 2 * time.Millisecond, Bandwidth: 10 << 20})
		n.SetWindow(testbed.WindowBytes)
		fs := vfs.NewMemFS()
		vfs.WriteFile(fs, "big", make([]byte, size))
		var el time.Duration
		v.Run(func() {
			l, err := n.Host("srv").Listen("srv:6000")
			if err != nil {
				b.Fatal(err)
			}
			v.Go("ftp-server", func() { gridftp.NewServer(fs, v).Serve(l) })
			store := gns.NewStore(v)
			store.Set("app", "big", gns.Mapping{Mode: gns.ModeRemote, RemoteHost: "srv:6000", RemotePath: "big"})
			fm, err := core.New(core.Config{
				Machine: "app", Clock: v, FS: vfs.NewMemFS(), Dialer: n.Host("app"),
				GNS: store, BlockCacheBytes: cacheBytes,
			})
			if err != nil {
				b.Fatal(err)
			}
			f, err := fm.Open("big")
			if err != nil {
				b.Fatal(err)
			}
			defer f.Close()
			start := v.Now()
			for pass := 0; pass < 2; pass++ {
				if _, err := f.Seek(0, io.SeekStart); err != nil {
					b.Fatal(err)
				}
				if n, _ := io.Copy(io.Discard, f); n != size {
					b.Fatalf("pass %d read %d bytes", pass, n)
				}
			}
			el = v.Now().Sub(start)
		})
		return el
	}
	b.ReportAllocs()
	b.SetBytes(2 * size)
	var off, on time.Duration
	for i := 0; i < b.N; i++ {
		off = run(0)
		on = run(8 << 20)
	}
	b.ReportMetric(off.Seconds()*1e3, "virt-ms/cache-off")
	b.ReportMetric(on.Seconds()*1e3, "virt-ms/cache-on")
}

// BenchmarkDegradedLinkRetry prices the resilience layer: a 1 MB fetch over
// a monash<->vpac-shaped link with retry off, with retry on but no faults
// (the happy-path overhead, target <2%), and with retry on across a
// mid-stream connection reset. Simulated transfer times surface as virt-ms
// metrics and the happy-path delta as overhead-pct, so BENCH_*.json tracks
// resilience overhead from now on.
func BenchmarkDegradedLinkRetry(b *testing.B) {
	const size = 1 << 20
	run := func(withRetry bool, arm func(n *simnet.Network)) time.Duration {
		v := simclock.NewVirtualDefault()
		n := simnet.New(v)
		n.SetLinkBoth("app", "srv", simnet.LinkSpec{Latency: 2 * time.Millisecond, Bandwidth: 460_000})
		fs := vfs.NewMemFS()
		vfs.WriteFile(fs, "big", make([]byte, size))
		var el time.Duration
		v.Run(func() {
			l, err := n.Host("srv").Listen("srv:6000")
			if err != nil {
				b.Fatal(err)
			}
			v.Go("ftp-server", func() { gridftp.NewServer(fs, v).Serve(l) })
			c := gridftp.NewClient(n.Host("app"), "srv:6000", v)
			if withRetry {
				p := retry.Default(v)
				p.AttemptTimeout = 2 * time.Second
				c.SetRetry(p)
			}
			if arm != nil {
				arm(n)
			}
			start := v.Now()
			if _, err := c.Fetch("big", 0, -1, io.Discard); err != nil {
				b.Fatal(err)
			}
			el = v.Now().Sub(start)
		})
		return el
	}
	b.ReportAllocs()
	b.SetBytes(3 * size)
	var off, on, degraded time.Duration
	for i := 0; i < b.N; i++ {
		off = run(false, nil)
		on = run(true, nil)
		degraded = run(true, func(n *simnet.Network) { n.FailAfter("srv", "app", size/2) })
	}
	b.ReportMetric(off.Seconds()*1e3, "virt-ms/retry-off")
	b.ReportMetric(on.Seconds()*1e3, "virt-ms/retry-on")
	b.ReportMetric(degraded.Seconds()*1e3, "virt-ms/degraded")
	pct := 100 * (on - off).Seconds() / off.Seconds()
	b.ReportMetric(pct, "overhead-%")
	if pct > 2 {
		b.Errorf("happy-path retry overhead %.2f%%, target <2%%", pct)
	}
}

// stripeBenchSize is the striped stage-in benchmark payload: large enough
// (>512 KiB) that the multi-source striped planner engages.
const stripeBenchSize = 1 << 20

// stripedStageInTime stages a replica-copy file onto dione from the given
// WAN replica set and returns the simulated stage-in duration (the Open
// call: mode 5 stages during open). With one host registered the FM takes
// the legacy single-source path; with three it stripes.
func stripedStageInTime(b *testing.B, hosts []string) time.Duration {
	b.Helper()
	e := chaos.NewEnv()
	want := chaos.Payload(11, stripeBenchSize)
	// Effective per-replica throughput to dione is window-limited on these
	// WAN paths; the NWS forecasts below are those effective rates, so the
	// planner's spans are proportional to what each source can deliver.
	bw := map[string]float64{"bouscat": 53e3, "koume00": 133e3, "freak": 102e3}
	now := time.Unix(0, 0)
	for _, h := range hosts {
		if err := vfs.WriteFile(e.Grid.Machine(h).RawFS(), "/rep/big", want); err != nil {
			b.Fatal(err)
		}
		e.Cat.Register("bench-big", replica.Location{Host: h, Addr: h + workflow.FileServicePort, Path: "/rep/big"})
		e.NWS.Record(h, "dione", nws.MetricBandwidth, now, bw[h])
	}
	e.Store.Set("dione", "BIG", gns.Mapping{
		Mode: gns.ModeReplicaCopy, LogicalName: "bench-big", LocalPath: "/stage/big",
	})
	var el time.Duration
	e.V.Run(func() {
		stop, err := e.StartServices(append([]string{"dione"}, hosts...)...)
		if err != nil {
			b.Fatal(err)
		}
		defer stop()
		fm, err := e.FM("dione", chaos.Policy())
		if err != nil {
			b.Fatal(err)
		}
		start := e.V.Now()
		f, err := fm.Open("BIG")
		if err != nil {
			b.Fatal(err)
		}
		el = e.V.Now().Sub(start)
		got, err := io.ReadAll(f)
		f.Close()
		if err != nil || !bytes.Equal(got, want) {
			b.Fatalf("staged bytes wrong (err=%v, %d bytes)", err, len(got))
		}
	})
	return el
}

// BenchmarkStripedStageIn prices the PR 4 tentpole: a 1 MiB replica-copy
// stage-in onto dione from the best single WAN replica versus striped
// across three. Every path is window-limited, so striping aggregates
// per-connection throughput the way the paper's multi-source transfers do.
// The speedup-x metric is gated: the ISSUE acceptance floor is 1.5x.
func BenchmarkStripedStageIn(b *testing.B) {
	b.ReportAllocs()
	b.SetBytes(2 * stripeBenchSize)
	var single, striped time.Duration
	for i := 0; i < b.N; i++ {
		single = stripedStageInTime(b, []string{"koume00"})
		striped = stripedStageInTime(b, []string{"bouscat", "koume00", "freak"})
	}
	b.ReportMetric(single.Seconds(), "virt-s/single-source")
	b.ReportMetric(striped.Seconds(), "virt-s/striped-3")
	speedup := single.Seconds() / striped.Seconds()
	b.ReportMetric(speedup, "speedup-x")
	if speedup < 1.5 {
		b.Errorf("striped stage-in speedup %.2fx over best single source, floor 1.5x", speedup)
	}
}

// BenchmarkPrefetchScan prices the async prefetch pipeline: a mode-3
// sequential scan of a 2 MiB remote file over a WAN-shaped (window-limited,
// 30 ms) link, prefetch off versus a window of 4 ahead of the reader. The
// prefetch-hit-% metric is gated: the ISSUE acceptance floor is 90%.
func BenchmarkPrefetchScan(b *testing.B) {
	const size = 2 << 20
	run := func(window int) (time.Duration, *obs.Observer) {
		v := simclock.NewVirtualDefault()
		n := simnet.New(v)
		n.SetLinkBoth("app", "srv", simnet.LinkSpec{Latency: 30 * time.Millisecond, Bandwidth: 1 << 20})
		n.SetWindow(testbed.WindowBytes)
		fs := vfs.NewMemFS()
		vfs.WriteFile(fs, "big", make([]byte, size))
		o := obs.New(v)
		var el time.Duration
		v.Run(func() {
			l, err := n.Host("srv").Listen("srv:6000")
			if err != nil {
				b.Fatal(err)
			}
			v.Go("ftp-server", func() { gridftp.NewServer(fs, v).Serve(l) })
			store := gns.NewStore(v)
			store.Set("app", "big", gns.Mapping{Mode: gns.ModeRemote, RemoteHost: "srv:6000", RemotePath: "big"})
			fm, err := core.New(core.Config{
				Machine: "app", Clock: v, FS: vfs.NewMemFS(), Dialer: n.Host("app"),
				GNS: store, BlockCacheBytes: 8 << 20, PrefetchWindow: window, Obs: o,
			})
			if err != nil {
				b.Fatal(err)
			}
			f, err := fm.Open("big")
			if err != nil {
				b.Fatal(err)
			}
			defer f.Close()
			start := v.Now()
			if n, _ := io.Copy(io.Discard, f); n != size {
				b.Fatalf("scan read %d bytes", n)
			}
			el = v.Now().Sub(start)
		})
		return el, o
	}
	b.ReportAllocs()
	b.SetBytes(2 * size)
	var off, on time.Duration
	var o *obs.Observer
	for i := 0; i < b.N; i++ {
		off, _ = run(0)
		on, o = run(4)
	}
	b.ReportMetric(off.Seconds()*1e3, "virt-ms/prefetch-off")
	b.ReportMetric(on.Seconds()*1e3, "virt-ms/prefetch-on")
	snap := o.Snapshot().Counters
	hits, misses := snap["ftp.prefetch.hit.total"], snap["ftp.prefetch.miss.total"]
	var hitPct float64
	if hits+misses > 0 {
		hitPct = 100 * float64(hits) / float64(hits+misses)
	}
	b.ReportMetric(hitPct, "prefetch-hit-%")
	if hitPct < 90 {
		b.Errorf("sequential-scan prefetch hit rate %.1f%%, floor 90%%", hitPct)
	}
}

// BenchmarkWriteBehindStream prices the remote write path on a slow link: a
// mode-3 producer streams 256 KiB to a remote file in 2 KiB writes over the
// WAN-shaped link. The writes coalesce into 64 KiB runs, one round trip
// each, and Close is the durability barrier. The metric keeps the key of the
// asynchronous write-behind pipeline this path replaced, which read 1510
// virt-ms here at a 1 MiB bound (a round trip per write read 8114); the
// ceiling is the 10% virt gate on that.
func BenchmarkWriteBehindStream(b *testing.B) {
	const size = 256 << 10
	const ceiling = 1661 * time.Millisecond
	run := func() time.Duration {
		v := simclock.NewVirtualDefault()
		n := simnet.New(v)
		n.SetLinkBoth("app", "srv", simnet.LinkSpec{Latency: 30 * time.Millisecond, Bandwidth: 1 << 20})
		n.SetWindow(testbed.WindowBytes)
		fs := vfs.NewMemFS()
		want := make([]byte, size)
		var el time.Duration
		v.Run(func() {
			l, err := n.Host("srv").Listen("srv:6000")
			if err != nil {
				b.Fatal(err)
			}
			v.Go("ftp-server", func() { gridftp.NewServer(fs, v).Serve(l) })
			store := gns.NewStore(v)
			store.Set("app", "out", gns.Mapping{Mode: gns.ModeRemote, RemoteHost: "srv:6000", RemotePath: "out"})
			fm, err := core.New(core.Config{
				Machine: "app", Clock: v, FS: vfs.NewMemFS(), Dialer: n.Host("app"),
				GNS: store,
			})
			if err != nil {
				b.Fatal(err)
			}
			start := v.Now()
			f, err := fm.Create("out")
			if err != nil {
				b.Fatal(err)
			}
			const chunk = 2 << 10
			for off := 0; off < size; off += chunk {
				if _, err := f.Write(want[off : off+chunk]); err != nil {
					b.Fatal(err)
				}
			}
			if err := f.Close(); err != nil {
				b.Fatal(err)
			}
			el = v.Now().Sub(start)
		})
		got, err := vfs.ReadFile(fs, "out")
		if err != nil || !bytes.Equal(got, want) {
			b.Fatalf("remote file wrong after stream (err=%v, %d bytes)", err, len(got))
		}
		return el
	}
	b.ReportAllocs()
	b.SetBytes(size)
	var el time.Duration
	for i := 0; i < b.N; i++ {
		el = run()
	}
	b.ReportMetric(el.Seconds()*1e3, "virt-ms/write-behind")
	if el > ceiling {
		b.Errorf("coalesced remote stream took %v, ceiling %v", el, ceiling)
	}
}

// dagBenchRun executes spec on a fresh testbed grid under sequential
// coupling and returns the run report.
func dagBenchRun(b *testing.B, spec *workflow.Spec, mutate func(*workflow.Runner)) *workflow.Report {
	b.Helper()
	v := simclock.NewVirtualDefault()
	grid := testbed.DefaultGrid(v)
	runner := &workflow.Runner{Grid: grid, GNS: gns.NewStore(v)}
	if mutate != nil {
		mutate(runner)
	}
	var rep *workflow.Report
	v.Run(func() {
		stop, err := workflow.StartServices(v, grid)
		if err != nil {
			b.Fatal(err)
		}
		defer stop()
		rep, err = runner.Run(spec, workflow.CouplingSequential)
		if err != nil {
			b.Fatal(err)
		}
	})
	return rep
}

// dagDiamond is the PR 5 tentpole workload: source -> {mid1, mid2} -> sink
// across three machines, with `work` brecca-seconds per branch and payload
// bytes on every edge. The branches are independent, so the DAG scheduler
// can run them concurrently where the serial executor cannot.
func dagDiamond(work float64, payload int) *workflow.Spec {
	write := func(ctx *workflow.Ctx, path string) error {
		w, err := ctx.FM.Create(path)
		if err != nil {
			return err
		}
		if _, err := w.Write(make([]byte, payload)); err != nil {
			return err
		}
		return w.Close()
	}
	read := func(ctx *workflow.Ctx, path string) error {
		r, err := ctx.FM.Open(path)
		if err != nil {
			return err
		}
		defer r.Close()
		n, err := io.Copy(io.Discard, r)
		if err != nil {
			return err
		}
		if n != int64(payload) {
			return fmt.Errorf("%s: read %d of %d bytes", path, n, payload)
		}
		return nil
	}
	mid := func(in, out string) func(*workflow.Ctx) error {
		return func(ctx *workflow.Ctx) error {
			if err := read(ctx, in); err != nil {
				return err
			}
			ctx.Compute(work)
			return write(ctx, out)
		}
	}
	return &workflow.Spec{Name: "bench-diamond", Components: []workflow.Component{
		{Name: "source", Machine: "brecca", Outputs: []string{"src.dat"}, WorkHint: 5,
			Run: func(ctx *workflow.Ctx) error { ctx.Compute(5); return write(ctx, "src.dat") }},
		{Name: "mid1", Machine: "dione", Inputs: []string{"src.dat"}, Outputs: []string{"m1.dat"}, WorkHint: work,
			Run: mid("src.dat", "m1.dat")},
		{Name: "mid2", Machine: "freak", Inputs: []string{"src.dat"}, Outputs: []string{"m2.dat"}, WorkHint: work,
			Run: mid("src.dat", "m2.dat")},
		{Name: "sink", Machine: "brecca", Inputs: []string{"m1.dat", "m2.dat"}, WorkHint: 5,
			Run: func(ctx *workflow.Ctx) error {
				for _, in := range []string{"m1.dat", "m2.dat"} {
					if err := read(ctx, in); err != nil {
						return err
					}
				}
				ctx.Compute(5)
				return nil
			}},
	}}
}

// BenchmarkDAGParallelStages is the PR 5 tentpole headline: the diamond
// workflow under the historical serial executor versus the ready-set DAG
// scheduler with eager stage-in. The speedup-x metric is gated: the ISSUE
// acceptance floor is 1.5x.
func BenchmarkDAGParallelStages(b *testing.B) {
	var serial, dag time.Duration
	for i := 0; i < b.N; i++ {
		serial = dagBenchRun(b, dagDiamond(30, 512<<10), func(r *workflow.Runner) { r.Serial = true }).Total
		dag = dagBenchRun(b, dagDiamond(30, 512<<10), func(r *workflow.Runner) { r.EagerCopy = true }).Total
	}
	b.ReportMetric(serial.Seconds(), "virt-s/serial")
	b.ReportMetric(dag.Seconds(), "virt-s/dag")
	speedup := serial.Seconds() / dag.Seconds()
	b.ReportMetric(speedup, "speedup-x")
	if speedup < 1.5 {
		b.Errorf("DAG scheduling speedup %.2fx over serial executor, floor 1.5x", speedup)
	}
}

// BenchmarkJournalOverhead is the PR 8 durability gate: the climate
// pipeline with every coordinator transition journaled (SyncEvery=1, the
// strictest setting) versus journal-off. Journal appends cost no simulated
// time — the sink is I/O outside the modelled grid — so the virtual-time
// overhead must stay within 2%.
func BenchmarkJournalOverhead(b *testing.B) {
	var off, on time.Duration
	var journalBytes int
	for i := 0; i < b.N; i++ {
		p := benchClimate()
		assign := climate.Split("brecca", "dione")
		off = dagBenchRun(b, climate.WorkflowSpec(p, assign), nil).Total
		sink := &workflow.MemSink{}
		on = dagBenchRun(b, climate.WorkflowSpec(p, assign), func(r *workflow.Runner) {
			r.Journal = workflow.NewJournal(sink, r.Grid.Clock())
		}).Total
		journalBytes = len(sink.Bytes())
	}
	b.ReportMetric(off.Seconds(), "virt-s/journal-off")
	b.ReportMetric(on.Seconds(), "virt-s/journal-on")
	b.ReportMetric(float64(journalBytes), "journal-bytes")
	overhead := (on.Seconds() - off.Seconds()) / off.Seconds() * 100
	b.ReportMetric(overhead, "overhead-pct")
	if overhead > 2 {
		b.Errorf("journaling added %.2f%% virtual time to the climate pipeline, ceiling 2%%", overhead)
	}
}

// eagerTail is the eager stage-in workload: a producer on brecca writes
// payload bytes, closes, then keeps computing for `tail` units — the window
// the eager copy hides the transfer in — before a consumer on dione reads
// the file. The consumer marks "input-open" once its open (and therefore
// any open-time copy) completes.
func eagerTail(payload int, tail float64) *workflow.Spec {
	return &workflow.Spec{Name: "bench-eager", Components: []workflow.Component{
		{Name: "producer", Machine: "brecca", Outputs: []string{"out.dat"}, WorkHint: tail,
			Run: func(ctx *workflow.Ctx) error {
				w, err := ctx.FM.Create("out.dat")
				if err != nil {
					return err
				}
				if _, err := w.Write(make([]byte, payload)); err != nil {
					return err
				}
				if err := w.Close(); err != nil {
					return err
				}
				ctx.Compute(tail)
				return nil
			}},
		{Name: "consumer", Machine: "dione", Inputs: []string{"out.dat"}, WorkHint: 1,
			Run: func(ctx *workflow.Ctx) error {
				r, err := ctx.FM.Open("out.dat")
				if err != nil {
					return err
				}
				defer r.Close()
				ctx.Mark("input-open")
				if n, _ := io.Copy(io.Discard, r); n != int64(payload) {
					return fmt.Errorf("consumer read %d of %d bytes", n, payload)
				}
				return nil
			}},
	}}
}

// BenchmarkEagerCopyOverlap prices eager stage-in on the producer-tail
// pipeline: the open-time copy versus the eager copy launched at producer
// close. hidden-% is the share of the open-time copy cost that the eager
// copy removed from the critical path — gated at 90%: with a compute tail
// longer than the transfer, the copy must hide almost entirely.
func BenchmarkEagerCopyOverlap(b *testing.B) {
	const payload = 2 << 20
	var off, on *workflow.Report
	for i := 0; i < b.N; i++ {
		off = dagBenchRun(b, eagerTail(payload, 30), nil)
		on = dagBenchRun(b, eagerTail(payload, 30), func(r *workflow.Runner) { r.EagerCopy = true })
	}
	consumer, _ := off.Timing("consumer")
	openMark, ok := off.Mark("consumer/input-open")
	if !ok {
		b.Fatal("consumer never marked input-open")
	}
	copyOff := openMark - consumer.Start // the open-time stage-in cost
	b.ReportMetric(copyOff.Seconds()*1e3, "virt-ms/open-copy")
	b.ReportMetric(off.Total.Seconds()*1e3, "virt-ms/eager-off")
	b.ReportMetric(on.Total.Seconds()*1e3, "virt-ms/eager-on")
	hidden := 100 * (off.Total - on.Total).Seconds() / copyOff.Seconds()
	b.ReportMetric(hidden, "hidden-%")
	if hidden < 90 {
		b.Errorf("eager copy hides %.1f%% of the stage-in cost, floor 90%%", hidden)
	}
}

// BenchmarkObjstoreRereadScan prices the registry's cross-cutting read
// layers on mechanism 7: a mode-7 consumer scans a 2 MiB object twice over
// a monash<->vpac-shaped link, once with the block cache and prefetch
// pipeline off and once with both on. With the layers on, prefetch overlaps
// the first pass's ranged GETs with consumption and the second pass is
// served from cached blocks without touching the network — proof that the
// generic Env composition delivers the same wins on a registry backend as
// on the built-in mechanisms. The speedup-x metric is gated: the PR 6
// acceptance floor is 1.5x.
func BenchmarkObjstoreRereadScan(b *testing.B) {
	const size = 2 << 20
	run := func(cacheBytes int64, window int) time.Duration {
		v := simclock.NewVirtualDefault()
		n := simnet.New(v)
		n.SetLinkBoth("app", "srv", simnet.LinkSpec{Latency: 2 * time.Millisecond, Bandwidth: 10 << 20})
		n.SetWindow(testbed.WindowBytes)
		store := objstore.NewStore()
		store.PutBytes("bench/big", make([]byte, size))
		var el time.Duration
		v.Run(func() {
			l, err := n.Host("srv").Listen("srv:7100")
			if err != nil {
				b.Fatal(err)
			}
			v.Go("objstore-server", func() { objstore.NewServer(store, v).Serve(l) })
			g := gns.NewStore(v)
			g.Set("app", "big", gns.Mapping{Mode: gns.ModeObject, RemoteHost: "srv:7100", RemotePath: "bench/big"})
			fm, err := core.New(core.Config{
				Machine: "app", Clock: v, FS: vfs.NewMemFS(), Dialer: n.Host("app"),
				GNS: g, BlockCacheBytes: cacheBytes, PrefetchWindow: window,
			})
			if err != nil {
				b.Fatal(err)
			}
			f, err := fm.Open("big")
			if err != nil {
				b.Fatal(err)
			}
			defer f.Close()
			start := v.Now()
			for pass := 0; pass < 2; pass++ {
				if _, err := f.Seek(0, io.SeekStart); err != nil {
					b.Fatal(err)
				}
				if n, _ := io.Copy(io.Discard, f); n != size {
					b.Fatalf("pass %d read %d bytes", pass, n)
				}
			}
			el = v.Now().Sub(start)
		})
		return el
	}
	b.ReportAllocs()
	b.SetBytes(2 * size)
	var off, on time.Duration
	for i := 0; i < b.N; i++ {
		off = run(0, 0)
		on = run(8<<20, core.DefaultPrefetchWindow)
	}
	b.ReportMetric(off.Seconds()*1e3, "virt-ms/layers-off")
	b.ReportMetric(on.Seconds()*1e3, "virt-ms/layers-on")
	speedup := off.Seconds() / on.Seconds()
	b.ReportMetric(speedup, "speedup-x")
	if speedup < 1.5 {
		b.Errorf("cache+prefetch re-read speedup %.2fx on mode 7, floor 1.5x", speedup)
	}
}

// gnsBenchCluster boots one single-member gns shard server per entry of
// spec with a serialized per-request service time charged in virtual time —
// the classic M/D/1 shape: each server can work one request at a time, so
// aggregate throughput is bounded by how many servers share the key space.
// Returns the seed addresses and a closer. Must run inside v.Run.
func gnsBenchCluster(b *testing.B, v *simclock.Virtual, n *simnet.Network, sm gns.ShardMap, service time.Duration) (seeds []string, closeAll func()) {
	b.Helper()
	var listeners []net.Listener
	for _, s := range sm.Shards {
		seeds = append(seeds, s.Addrs...)
		for _, addr := range s.Addrs {
			host := addr[:strings.IndexByte(addr, ':')]
			srv := gns.NewServer(gns.NewStore(v), v)
			mu := simclock.NewMutex(v)
			srv.SetRequestCost(func() {
				mu.Lock()
				v.Sleep(service)
				mu.Unlock()
			})
			l, err := n.Host(host).Listen(addr)
			if err != nil {
				b.Fatalf("listen %s: %v", addr, err)
			}
			if err := srv.EnableShard(gns.ShardConfig{
				Map: sm, ID: s.ID, Self: addr, Dialer: n.Host(host),
			}); err != nil {
				b.Fatalf("enable shard %s: %v", addr, err)
			}
			v.Go("gns-serve-"+addr, func() { srv.Serve(l) })
			listeners = append(listeners, l)
		}
	}
	return seeds, func() {
		for _, l := range listeners {
			l.Close()
		}
	}
}

// gnsBenchPolicy is the client retry policy for the resolve benchmarks:
// generous enough that queueing behind the serialized service time never
// trips an attempt timeout.
func gnsBenchPolicy(v *simclock.Virtual) retry.Policy {
	p := retry.Default(v)
	p.BaseDelay = 100 * time.Millisecond
	p.MaxDelay = time.Second
	p.AttemptTimeout = 30 * time.Second
	return p
}

// gnsShardedResolveRate measures aggregate resolve throughput (resolves per
// simulated second) against a cluster of the given ring spec. The key set is
// balanced across shards by construction (equal per-shard counts chosen via
// the same ring the servers use), so the measured speedup isolates the
// sharding mechanism rather than hash luck on a small key sample.
func gnsShardedResolveRate(b *testing.B, spec string, service time.Duration) float64 {
	b.Helper()
	const (
		clients   = 32
		perShard  = 32
		perClient = 256
	)
	sm, err := gns.ParseRing(spec)
	if err != nil {
		b.Fatal(err)
	}
	ring := gns.NewRing(sm)
	// Pick perShard keys owned by each shard.
	keys := make([]string, 0, perShard*len(sm.Shards))
	fill := make(map[uint32]int)
	for i := 0; len(keys) < cap(keys); i++ {
		path := fmt.Sprintf("/bench/key-%04d", i)
		if s := ring.ShardFor("bench", path); fill[s] < perShard {
			fill[s]++
			keys = append(keys, path)
		}
	}
	v := simclock.NewVirtualDefault()
	n := simnet.New(v)
	var rate float64
	v.Run(func() {
		seeds, closeAll := gnsBenchCluster(b, v, n, sm, service)
		defer closeAll()
		admin := gns.NewShardedClient(n.Host("admin"), seeds, v)
		admin.SetRetry(gnsBenchPolicy(v))
		defer admin.Close()
		for _, path := range keys {
			if _, err := admin.Set("bench", path, gns.Mapping{Mode: gns.ModeLocal, LocalPath: path}); err != nil {
				b.Fatal(err)
			}
		}
		start := v.Now()
		wg := simclock.NewWaitGroup(v)
		for c := 0; c < clients; c++ {
			cl := gns.NewShardedClient(n.Host(fmt.Sprintf("app%d", c)), seeds, v)
			cl.SetRetry(gnsBenchPolicy(v))
			defer cl.Close()
			off := c
			wg.Add(1)
			v.Go(fmt.Sprintf("bench-resolver-%d", c), func() {
				defer wg.Done()
				for i := 0; i < perClient; i++ {
					path := keys[(off*perClient+i)%len(keys)]
					if _, err := cl.Resolve("bench", path); err != nil {
						b.Errorf("resolve %s: %v", path, err)
						return
					}
				}
			})
		}
		wg.Wait()
		rate = float64(clients*perClient) / v.Now().Sub(start).Seconds()
	})
	return rate
}

// BenchmarkGNSResolveSharded prices the PR 10 tentpole: aggregate resolve
// throughput against one shard versus four, with a 1 ms serialized service
// time per request modeling the store's critical section. The key set is
// shard-balanced by construction, so four single-threaded shards should
// serve very nearly four times the load. The speedup-x metric is gated: the
// ISSUE acceptance floor is 3x.
func BenchmarkGNSResolveSharded(b *testing.B) {
	b.ReportAllocs()
	const service = time.Millisecond
	var one, four float64
	for i := 0; i < b.N; i++ {
		one = gnsShardedResolveRate(b, "0=gns0:5000", service)
		four = gnsShardedResolveRate(b, "0=gns0:5000;1=gns1:5000;2=gns2:5000;3=gns3:5000", service)
	}
	b.ReportMetric(one, "resolves/s/1shard")
	b.ReportMetric(four, "resolves/s/4shard")
	speedup := four / one
	b.ReportMetric(speedup, "speedup-x")
	if speedup < 3 {
		b.Errorf("4-shard resolve throughput %.2fx of 1-shard, floor 3x", speedup)
	}
}

// BenchmarkGNSResolveLeaseCached prices the lease cache: a client resolves
// a small working set far more often than its lease TTL expires. Every
// resolve must be answered from the
// local lease cache — and since Set folds its own write into the cache,
// even the cold miss disappears. The rpcs metric counts server requests
// during the resolve phase, and its floor is exactly zero. The
// uncached rate pays the wire and the serialized service time every time,
// so the cached/uncached ratio is also reported as speedup-x.
func BenchmarkGNSResolveLeaseCached(b *testing.B) {
	b.ReportAllocs()
	const (
		keys    = 32
		rounds  = 64
		service = 200 * time.Microsecond
	)
	run := func(cache bool) (elapsed time.Duration, rate float64, extra int64) {
		v := simclock.NewVirtualDefault()
		n := simnet.New(v)
		var rpcs atomic.Int64
		v.Run(func() {
			srv := gns.NewServer(gns.NewStore(v), v)
			mu := simclock.NewMutex(v)
			srv.SetRequestCost(func() {
				rpcs.Add(1)
				mu.Lock()
				v.Sleep(service)
				mu.Unlock()
			})
			l, err := n.Host("gns0").Listen("gns0:5000")
			if err != nil {
				b.Fatal(err)
			}
			defer l.Close()
			v.Go("gns-serve", func() { srv.Serve(l) })
			c := gns.NewClient(n.Host("app"), "gns0:5000", v)
			c.SetRetry(gnsBenchPolicy(v))
			defer c.Close()
			if cache {
				c.EnableCache()
			}
			for k := 0; k < keys; k++ {
				if _, err := c.Set("bench", fmt.Sprintf("/c/%02d", k), gns.Mapping{Mode: gns.ModeLocal}); err != nil {
					b.Fatal(err)
				}
			}
			rpcs.Store(0)
			start := v.Now()
			for r := 0; r < rounds; r++ {
				for k := 0; k < keys; k++ {
					if _, err := c.Resolve("bench", fmt.Sprintf("/c/%02d", k)); err != nil {
						b.Fatal(err)
					}
				}
			}
			elapsed = v.Now().Sub(start)
			if elapsed > 0 {
				rate = float64(rounds*keys) / elapsed.Seconds()
			}
			// With the cache on there are no cold misses either: Set folds
			// the client's own write into the cache (read-your-writes), so
			// the resolve phase must not touch the server at all.
			extra = rpcs.Load()
		})
		return elapsed, rate, extra
	}
	var cachedTime time.Duration
	var uncached float64
	var extra int64
	for i := 0; i < b.N; i++ {
		cachedTime, _, extra = run(true)
		_, uncached, _ = run(false)
	}
	// Cache hits are answered locally with no virtual-time cost at all, so
	// the cached phase is reported as its (zero) simulated duration rather
	// than a rate — a rate would divide by zero.
	b.ReportMetric(cachedTime.Seconds()*1e3, "virt-ms/cached")
	b.ReportMetric(uncached, "resolves/s/uncached")
	b.ReportMetric(float64(extra), "rpcs")
	if extra != 0 {
		b.Errorf("%d resolve RPCs within the lease TTL, want 0", extra)
	}
	if cachedTime != 0 {
		b.Errorf("cached resolve phase took %v of simulated time, want 0", cachedTime)
	}
}
