package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"griddles/internal/experiments"
	"griddles/internal/gridbuffer"
	"griddles/internal/gridftp"
	"griddles/internal/objstore"
	"griddles/internal/simclock"
	"griddles/internal/simnet"
	"griddles/internal/vfs"
	"griddles/internal/wire"
	"griddles/internal/xdr"
)

// Isolated-layer probes: short loops that call one layer's public
// functions directly with seeded inputs, no FM in the way. They put a
// number on a layer by itself, so when an end-to-end metric moves the
// ledger can say whether the layer or its caller changed. Each probe is
// sized to a few hundred milliseconds; they run after the measured part of
// a traced run, on the same grid, while it is otherwise idle.

const probeBytes = 16 << 20

// mbps reports megabytes per second.
func mbps(n int64, d time.Duration) float64 { return ratio(float64(n)/1e6, d.Seconds()) }

// runProbes fills m with every probe metric. A probe that fails reports
// through the returned error list and leaves its metric at zero.
func runProbes(g *grid, seed int64, m map[string]float64) []error {
	var errs []error
	d := newDataset(seed)
	try := func(name string, fn func() (float64, error)) {
		v, err := fn()
		if err != nil {
			errs = append(errs, fmt.Errorf("probe %s: %w", name, err))
			return
		}
		m[name] = v
	}
	probeWire(m)
	probeXDR(m)
	probeSim(m)
	try("gridbuffer.registry_ns_per_block", probeRegistry)
	if g == nil {
		return errs
	}
	try("gns.loopback_resolve_us", func() (float64, error) { return probeResolve(g) })
	try("gridbuffer.loopback_stream_mbps", func() (float64, error) { return probeBufferStream(g, d) })
	try("gridbuffer.cache_on_mbps", func() (float64, error) { return probeCacheOn(g, seed) })
	if err := probeGridFTP(g, d, m); err != nil {
		errs = append(errs, fmt.Errorf("probe gridftp: %w", err))
	}
	if err := probeObjStore(g, d, m); err != nil {
		errs = append(errs, fmt.Errorf("probe objstore: %w", err))
	}
	return errs
}

// probeWire times a frame written to and read back from memory at the two
// sizes the workloads use, and the lzb codec on climate-style records.
func probeWire(m map[string]float64) {
	frame := func(size, iters int) (nsPerFrame, allocs float64) {
		payload := make([]byte, size)
		var buf bytes.Buffer
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		for i := 0; i < iters; i++ {
			buf.Reset()
			wire.WriteFrame(&buf, 3, payload)
			wire.ReadFrame(&buf)
		}
		el := time.Since(start)
		runtime.ReadMemStats(&after)
		return float64(el.Nanoseconds()) / float64(iters), float64(after.Mallocs-before.Mallocs) / float64(iters)
	}
	m["wire.frame_4k_ns"], m["wire.frame_allocs"] = frame(4096, 100000)
	m["wire.frame_64k_ns"], _ = frame(64<<10, 10000)

	_, records := numericRecords(32768)
	codec, err := wire.ForName(wire.CodecLZB)
	if err != nil {
		return
	}
	var enc, dec []byte
	start := time.Now()
	const rounds = 20
	for i := 0; i < rounds; i++ {
		enc = codec.Encode(enc[:0], records)
	}
	m["wire.lzb_encode_mbps"] = mbps(int64(rounds*len(records)), time.Since(start))
	start = time.Now()
	for i := 0; i < rounds; i++ {
		dec, _ = codec.Decode(dec[:0], enc)
	}
	m["wire.lzb_decode_mbps"] = mbps(int64(rounds*len(records)), time.Since(start))
}

// numericRecords builds n fixed-layout climate-style records (timestamp,
// station, two readings) in little-endian row form.
func numericRecords(n int) (xdr.Schema, []byte) {
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

// probeXDR times row-wise and columnar byte-order translation, there and
// back, of the same records.
func probeXDR(m map[string]float64) {
	schema, payload := numericRecords(32768)
	data := append([]byte(nil), payload...)
	const rounds = 40
	start := time.Now()
	for i := 0; i < rounds; i++ {
		xdr.Translate(data, schema, binary.LittleEndian, binary.BigEndian)
		xdr.Translate(data, schema, binary.BigEndian, binary.LittleEndian)
	}
	m["xdr.translate_mbps"] = mbps(int64(2*rounds*len(data)), time.Since(start))
	enc, err := xdr.EncodeColumnar(nil, payload, schema, binary.LittleEndian)
	if err != nil {
		return
	}
	start = time.Now()
	for i := 0; i < rounds; i++ {
		xdr.TranslateColumnar(enc, schema, binary.LittleEndian, binary.BigEndian)
		xdr.TranslateColumnar(enc, schema, binary.BigEndian, binary.LittleEndian)
	}
	m["xdr.columnar_mbps"] = mbps(int64(2*rounds*len(payload)), time.Since(start))
}

// probeSim prices the simulator kernel by itself: one sleep-and-wake on the
// virtual clock, a megabyte through a simulated link, and one unverified
// pass over the Table 4 rows (whose files runs are schedule-dependent, so
// they are timed here and not checked in sim_grid).
func probeSim(m map[string]float64) {
	const sleeps = 50000
	v := simclock.NewVirtualDefault()
	start := time.Now()
	v.Run(func() {
		for i := 0; i < sleeps; i++ {
			v.Sleep(time.Millisecond)
		}
	})
	m["simclock.sleep_wake_ns"] = float64(time.Since(start).Nanoseconds()) / sleeps

	const rounds, chunk = 8, 1 << 20
	start = time.Now()
	for i := 0; i < rounds; i++ {
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
			c.Write(make([]byte, chunk))
			c.Close()
			done.Wait()
		})
	}
	m["simnet.wall_mbps"] = mbps(rounds*chunk, time.Since(start))

	start = time.Now()
	if _, err := experiments.RunTable4(simParams(), experiments.Table3Machines); err == nil {
		m["workflow.table4_wall_s"] = time.Since(start).Seconds()
	}
}

// probeRegistry times a block through an in-process Grid Buffer table.
func probeRegistry() (float64, error) {
	buf := gridbuffer.NewBuffer(simclock.Real{}, "probe", gridbuffer.Options{})
	id := buf.Attach()
	block := make([]byte, 4096)
	const blocks = 200000
	start := time.Now()
	for i := int64(0); i < blocks; i++ {
		if err := buf.Put(i, block); err != nil {
			return 0, err
		}
		if _, _, err := buf.Get(id, i); err != nil {
			return 0, err
		}
	}
	return float64(time.Since(start).Nanoseconds()) / blocks, nil
}

// probeResolve times gns.Client.Resolve against the live ring.
func probeResolve(g *grid) (float64, error) {
	c := adminGNS(g)
	defer c.Close()
	const n = 1000
	if _, err := c.Resolve("probe", "warm"); err != nil {
		return 0, err
	}
	start := time.Now()
	for i := 0; i < n; i++ {
		if _, err := c.Resolve("probe", fmt.Sprintf("p%d", i%64)); err != nil {
			return 0, err
		}
	}
	return float64(time.Since(start).Microseconds()) / n, nil
}

// probeBufferStream streams through gridbufferd with the bare client
// endpoints: the Grid Buffer protocol without the FM around it.
func probeBufferStream(g *grid, d *dataset) (float64, error) {
	const key = "gridlab/probe"
	defer dropBuffer(g.buf, key)
	errc := make(chan error, 1)
	go func() {
		r, err := gridbuffer.NewReader(tcpDialer{}, g.buf, simclock.Real{}, key, gridbuffer.Options{}, gridbuffer.ReaderOptions{})
		if err != nil {
			errc <- err
			return
		}
		n, err := io.Copy(io.Discard, r)
		r.Close()
		if err == nil && n != probeBytes {
			err = fmt.Errorf("read %d of %d bytes", n, probeBytes)
		}
		errc <- err
	}()
	start := time.Now()
	w, err := gridbuffer.NewWriter(tcpDialer{}, g.buf, simclock.Real{}, key, gridbuffer.Options{}, gridbuffer.WriterOptions{})
	if err != nil {
		return 0, err
	}
	werr := d.each(0, probeBytes, pipeCall, func(p []byte) error { _, err := w.Write(p); return err })
	if cerr := w.Close(); werr == nil {
		werr = cerr
	}
	if rerr := <-errc; werr == nil {
		werr = rerr
	}
	return mbps(probeBytes, time.Since(start)), werr
}

// probeCacheOn runs pipe_stream's op with CacheEnabled on the mapping. It
// is a diagnostic, not a workload: the spill file makes the per-stream rate
// decay within one run, so it cannot carry a bound.
func probeCacheOn(g *grid, seed int64) (float64, error) {
	w := &pipeWorkload{cached: true, size: probeBytes}
	if err := w.prepare(g, seed, nil); err != nil {
		return 0, err
	}
	defer w.close()
	rec := w.op(0, false, time.Now())
	return mbps(rec.bytes, rec.end-rec.start), rec.err
}

// probeGridFTP times the file service's three client paths: sequential
// block reads, 4 KiB block writes, and a whole-file stage-in.
func probeGridFTP(g *grid, d *dataset, m map[string]float64) error {
	const remote = "probe/read.dat"
	if err := d.writeFile(filepath.Join(g.ftpRoot[0], remote), 0, probeBytes); err != nil {
		return err
	}
	c := gridftp.NewClient(tcpDialer{}, g.ftp[0], simclock.Real{})
	defer c.Close()

	start := time.Now()
	rf, err := c.Open(remote, os.O_RDONLY)
	if err != nil {
		return err
	}
	n, err := io.CopyBuffer(io.Discard, onlyReader{rf}, make([]byte, ioCall))
	rf.Close()
	if err != nil || n != probeBytes {
		return fmt.Errorf("read %d of %d bytes: %v", n, probeBytes, err)
	}
	m["gridftp.loopback_read_mbps"] = mbps(n, time.Since(start))

	const writeBytes = 4 << 20
	start = time.Now()
	wf, err := c.Open("probe/write.dat", os.O_WRONLY|os.O_CREATE|os.O_TRUNC)
	if err != nil {
		return err
	}
	werr := d.each(0, writeBytes, remoteCall, func(p []byte) error { _, err := wf.Write(p); return err })
	if cerr := wf.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return werr
	}
	m["gridftp.loopback_write_4k_mbps"] = mbps(writeBytes, time.Since(start))

	local := vfs.NewOSFS(filepath.Join(g.dir, "probe-local"))
	if err := os.MkdirAll(local.Root, 0o755); err != nil {
		return err
	}
	start = time.Now()
	n, err = c.CopyIn(remote, local, "copyin.dat", 1)
	if err != nil || n != probeBytes {
		return fmt.Errorf("copy-in moved %d of %d bytes: %v", n, probeBytes, err)
	}
	m["gridftp.loopback_copyin_mbps"] = mbps(n, time.Since(start))
	return nil
}

// onlyReader hides every method but Read, so io.Copy cannot pick a
// different path than the application's read loop.
type onlyReader struct{ io.Reader }

// probeObjStore times a whole-object PUT and GET.
func probeObjStore(g *grid, d *dataset, m map[string]float64) error {
	c := objstore.NewClient(tcpDialer{}, g.obj, simclock.Real{})
	start := time.Now()
	if err := putObject(c, d, "probe/object", 0, probeBytes); err != nil {
		return err
	}
	m["objstore.loopback_put_mbps"] = mbps(probeBytes, time.Since(start))
	start = time.Now()
	n, _, err := c.Get("probe/object", 0, probeBytes, io.Discard)
	if err != nil || n != probeBytes {
		return fmt.Errorf("get moved %d of %d bytes: %v", n, probeBytes, err)
	}
	m["objstore.loopback_get_mbps"] = mbps(n, time.Since(start))
	return nil
}
