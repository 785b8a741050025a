package core

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"testing"

	"griddles/internal/gns"
	"griddles/internal/replica"
	"griddles/internal/simclock"
	"griddles/internal/vfs"
	"griddles/internal/xdr"
)

// The POSIX conformance suite: one op script, seven IO mechanisms, byte- and
// position-identical results. A bytes.Reader is the reference
// implementation; every mechanism's FM handle must match it op for op —
// seek-back, re-read, short reads at the tail, reads at EOF.

// confContent is the deterministic stream the suite reads: large enough to
// span several Grid Buffer blocks and cache blocks.
func confContent() []byte {
	data := make([]byte, 96_000)
	for i := range data {
		data[i] = byte(i*7 + i/251)
	}
	return data
}

// confStep is one scripted operation.
type confStep struct {
	op     string // "read" or "seek"
	n      int    // read: bytes wanted
	off    int64  // seek offset
	whence int    // seek whence
}

// confRecord is the observed outcome of one step.
type confRecord struct {
	data []byte // read: the bytes delivered
	eof  bool   // read: whether EOF was observed
	pos  int64  // seek: the reported position
	err  string // seek: error, "" on success
}

// confScript exercises every behaviour the satellite demands. Only
// SeekStart and SeekCurrent appear: a Grid Buffer stream has no known end
// until EOF, so SeekEnd is a documented divergence tested separately.
var confScript = []confStep{
	{op: "read", n: 16},                             // sequential read
	{op: "read", n: 7},                              // odd-sized short read
	{op: "seek", off: 0, whence: io.SeekStart},      // rewind
	{op: "read", n: 16},                             // re-read: identical bytes
	{op: "seek", off: 40_000, whence: io.SeekStart}, // jump forward
	{op: "read", n: 64},                             // read across block boundaries
	{op: "seek", off: -32, whence: io.SeekCurrent},  // seek back relative
	{op: "read", n: 32},                             // re-read the overlap
	{op: "seek", off: 95_995, whence: io.SeekStart}, // near the end
	{op: "read", n: 64},                             // short read: 5 bytes then EOF
	{op: "read", n: 8},                              // read at EOF
	{op: "seek", off: 0, whence: io.SeekStart},      // rewind once more
	{op: "read", n: 96_000},                         // full re-read
}

// runConfScript applies the script to f, reading each "read" step to
// completion (accumulating partial reads, as a POSIX application would)
// so that implementation-legal short returns don't fail conformance.
func runConfScript(f io.ReadSeeker) []confRecord {
	var out []confRecord
	for _, s := range confScript {
		switch s.op {
		case "read":
			rec := confRecord{}
			buf := make([]byte, s.n)
			got := 0
			for got < s.n {
				n, err := f.Read(buf[got:])
				got += n
				if err == io.EOF {
					rec.eof = true
					break
				}
				if err != nil {
					rec.err = err.Error()
					break
				}
			}
			rec.data = buf[:got]
			out = append(out, rec)
		case "seek":
			pos, err := f.Seek(s.off, s.whence)
			rec := confRecord{pos: pos}
			if err != nil {
				rec.err = err.Error()
			}
			out = append(out, rec)
		}
	}
	return out
}

// compareConf diffs the mechanism's records against the reference run.
func compareConf(t *testing.T, got, want []confRecord) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("script produced %d records, want %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		step := confScript[i]
		if g.err != w.err {
			t.Errorf("step %d (%s): err %q, want %q", i, step.op, g.err, w.err)
			continue
		}
		switch step.op {
		case "read":
			if !bytes.Equal(g.data, w.data) {
				t.Errorf("step %d (read %d): %d bytes differ from reference (%d bytes)",
					i, step.n, len(g.data), len(w.data))
			}
			if g.eof != w.eof {
				t.Errorf("step %d (read %d): eof=%v, want %v", i, step.n, g.eof, w.eof)
			}
		case "seek":
			if g.pos != w.pos {
				t.Errorf("step %d (seek %d,%d): pos=%d, want %d", i, step.off, step.whence, g.pos, w.pos)
			}
		}
	}
}

// confMech describes how to materialise the conformance stream under one IO
// mechanism and where the reader runs.
type confMech struct {
	name      string
	reader    string                                     // reader's machine
	configure func(e *env, content []byte)               // GNS entries, replica seeding
	produce   func(t *testing.T, e *env, content []byte) // nil: configure seeded the data
	async     bool                                       // produce concurrently (streaming coupling)
	transport Transport                                  // the reader's Grid Buffer transport
}

// readerFM builds the row's reader FM: its transport, then extra's settings.
func (m confMech) readerFM(t *testing.T, e *env, extra func(*Config)) *Multiplexer {
	t.Helper()
	return e.fm(t, m.reader, func(c *Config) {
		c.Buffer.Transport = m.transport
		if extra != nil {
			extra(c)
		}
	})
}

func confMechanisms() []confMech {
	const file = "conf.dat"
	writeAll := func(t *testing.T, fm *Multiplexer, content []byte) {
		t.Helper()
		w, err := fm.Create(file)
		if err != nil {
			t.Errorf("producer create: %v", err)
			return
		}
		for off := 0; off < len(content); off += 4096 {
			end := off + 4096
			if end > len(content) {
				end = len(content)
			}
			if _, err := w.Write(content[off:end]); err != nil {
				t.Errorf("producer write: %v", err)
				return
			}
		}
		if err := w.Close(); err != nil {
			t.Errorf("producer close: %v", err)
		}
	}
	seedReplicas := func(e *env, content []byte) {
		for _, host := range []string{"bouscat", "brecca"} {
			vfs.WriteFile(e.grid.Machine(host).RawFS(), "/rep/conf", content)
			e.cat.Register("confds", replica.Location{
				Host: host, Addr: host + ftpPort, Path: "/rep/conf",
			})
		}
	}
	return []confMech{
		{
			name:   "1-local",
			reader: "jagan",
			configure: func(e *env, _ []byte) {
				e.store.Set("jagan", file, gns.Mapping{Mode: gns.ModeLocal})
			},
			produce: func(t *testing.T, e *env, content []byte) {
				writeAll(t, e.fm(t, "jagan", nil), content)
			},
		},
		{
			name:   "2-copy",
			reader: "vpac27",
			configure: func(e *env, _ []byte) {
				e.store.Set("brecca", file, gns.Mapping{Mode: gns.ModeLocal})
				e.store.Set("vpac27", file, gns.Mapping{
					Mode: gns.ModeCopy, RemoteHost: "brecca" + ftpPort, RemotePath: file,
					LocalPath: "/staged/conf",
				})
			},
			produce: func(t *testing.T, e *env, content []byte) {
				writeAll(t, e.fm(t, "brecca", nil), content)
			},
		},
		{
			name:   "3-remote",
			reader: "jagan",
			configure: func(e *env, _ []byte) {
				e.store.Set("brecca", file, gns.Mapping{Mode: gns.ModeLocal})
				e.store.Set("jagan", file, gns.Mapping{
					Mode: gns.ModeRemote, RemoteHost: "brecca" + ftpPort, RemotePath: file,
				})
			},
			produce: func(t *testing.T, e *env, content []byte) {
				writeAll(t, e.fm(t, "brecca", nil), content)
			},
		},
		{
			name:   "4-replica-remote",
			reader: "vpac27",
			configure: func(e *env, content []byte) {
				seedReplicas(e, content)
				e.store.Set("vpac27", file, gns.Mapping{Mode: gns.ModeReplicaRemote, LogicalName: "confds"})
			},
		},
		{
			name:   "5-replica-copy",
			reader: "vpac27",
			configure: func(e *env, content []byte) {
				seedReplicas(e, content)
				e.store.Set("vpac27", file, gns.Mapping{
					Mode: gns.ModeReplicaCopy, LogicalName: "confds", LocalPath: "/local/conf",
				})
			},
		},
		{
			name:   "6-buffer",
			reader: "vpac27",
			async:  true,
			configure: func(e *env, _ []byte) {
				m := gns.Mapping{
					Mode: gns.ModeBuffer, BufferHost: "vpac27" + bufPort,
					BufferKey: "conf/stream", CacheEnabled: true,
				}
				e.store.Set("brecca", file, m)
				e.store.Set("vpac27", file, m)
			},
			produce: func(t *testing.T, e *env, content []byte) {
				writeAll(t, e.fm(t, "brecca", nil), content)
			},
		},
		{
			// Mechanism 6 over the paper's SOAP endpoint: the same registry
			// as 6-buffer, both ends speaking SOAP.
			name:      "6-soap",
			reader:    "vpac27",
			async:     true,
			transport: TransportSOAP,
			configure: func(e *env, _ []byte) {
				m := gns.Mapping{
					Mode: gns.ModeBuffer, BufferHost: "vpac27" + soapPort,
					BufferKey: "conf/stream", CacheEnabled: true,
				}
				e.store.Set("brecca", file, m)
				e.store.Set("vpac27", file, m)
			},
			produce: func(t *testing.T, e *env, content []byte) {
				writeAll(t, e.fm(t, "brecca", func(c *Config) { c.Buffer.Transport = TransportSOAP }), content)
			},
		},
		{
			// The producer writes through its own FM: the write handle
			// accumulates the body and commits it as one atomic PUT on Close,
			// so by the time the (synchronous) reader opens, the object is
			// visible and ranged GETs serve the script.
			name:   "7-objstore",
			reader: "vpac27",
			configure: func(e *env, _ []byte) {
				m := gns.Mapping{
					Mode: gns.ModeObject, RemoteHost: "brecca" + objPort, RemotePath: "conf/obj",
				}
				e.store.Set("brecca", file, m)
				e.store.Set("vpac27", file, m)
			},
			produce: func(t *testing.T, e *env, content []byte) {
				writeAll(t, e.fm(t, "brecca", nil), content)
			},
		},
	}
}

// TestConformanceMechanismMatrix runs the identical op script through every
// IO mechanism — with the FM block cache off and on, and with the prefetch
// pipeline off and on — and requires results byte-identical to the
// bytes.Reader reference. The script is deliberately seek-heavy, so the
// prefetch rows also pin that the pipeline's self-disable leaves the byte
// stream untouched. prefetch>0 with no cache is skipped: the pipeline has
// nowhere to land blocks, so it never engages (see TestPrefetchRequiresBlockCache).
func TestConformanceMechanismMatrix(t *testing.T) {
	content := confContent()
	want := runConfScript(bytes.NewReader(content))
	for _, cacheMB := range []int64{0, 4} {
		for _, prefetch := range []int{0, 4} {
			if prefetch > 0 && cacheMB == 0 {
				continue
			}
			for _, m := range confMechanisms() {
				m := m
				cacheMB := cacheMB
				prefetch := prefetch
				t.Run(fmt.Sprintf("%s/cache=%dMB/prefetch=%d", m.name, cacheMB, prefetch), func(t *testing.T) {
					e := newEnv()
					m.configure(e, content)
					e.v.Run(func() {
						e.startServices(t)
						var done *simclock.WaitGroup
						if m.produce != nil {
							if m.async {
								done = simclock.NewWaitGroup(e.v)
								done.Add(1)
								e.v.Go("producer", func() {
									defer done.Done()
									m.produce(t, e, content)
								})
							} else {
								m.produce(t, e, content)
							}
						}
						fm := m.readerFM(t, e, func(c *Config) {
							c.BlockCacheBytes = cacheMB << 20
							c.PrefetchWindow = prefetch
						})
						f, err := fm.Open("conf.dat")
						if err != nil {
							t.Fatalf("open: %v", err)
						}
						got := runConfScript(f)
						if err := f.Close(); err != nil {
							t.Errorf("close: %v", err)
						}
						if done != nil {
							done.Wait()
						}
						compareConf(t, got, want)
					})
				})
			}
		}
	}
}

// TestConformanceCodecMatrix re-runs the op script through every mechanism
// under the negotiated wire encodings: explicitly raw, block-compressed, and
// compressed with the columnar XDR transform armed by a record schema. The
// reader's FM negotiates; producers stay on the default raw wire, so every
// row also exercises mixed-codec access to the same data. Results must stay
// byte-identical to the bytes.Reader reference — the codec is transport-only.
func TestConformanceCodecMatrix(t *testing.T) {
	content := confContent()
	want := runConfScript(bytes.NewReader(content))
	// 96 000 bytes = 6 000 whole 16-byte records.
	confSchema := xdr.Schema{Fields: []xdr.Field{
		{Name: "a", Kind: xdr.KindUint32},
		{Name: "b", Kind: xdr.KindUint32},
		{Name: "v", Kind: xdr.KindFloat64},
	}}
	codecs := []struct {
		name  string
		extra func(c *Config)
	}{
		{"raw", func(c *Config) { c.WireCodec = "raw" }},
		{"lzb", func(c *Config) { c.WireCodec = "lzb" }},
		{"lzb-columnar", func(c *Config) {
			c.WireCodec = "lzb"
			c.Records = map[string]RecordSpec{"conf.dat": {Schema: confSchema}}
		}},
	}
	for _, cd := range codecs {
		for _, m := range confMechanisms() {
			cd, m := cd, m
			t.Run(fmt.Sprintf("%s/%s", m.name, cd.name), func(t *testing.T) {
				e := newEnv()
				m.configure(e, content)
				e.v.Run(func() {
					e.startServices(t)
					var done *simclock.WaitGroup
					if m.produce != nil {
						if m.async {
							done = simclock.NewWaitGroup(e.v)
							done.Add(1)
							e.v.Go("producer", func() {
								defer done.Done()
								m.produce(t, e, content)
							})
						} else {
							m.produce(t, e, content)
						}
					}
					fm := m.readerFM(t, e, cd.extra)
					f, err := fm.Open("conf.dat")
					if err != nil {
						t.Fatalf("open: %v", err)
					}
					got := runConfScript(f)
					if err := f.Close(); err != nil {
						t.Errorf("close: %v", err)
					}
					if done != nil {
						done.Wait()
					}
					compareConf(t, got, want)
				})
			})
		}
	}
}

// TestConformanceInterleavedSeekWrite runs an identical seek+write script
// through every writable, seekable mechanism and requires the readback to
// match an in-memory simulation of the same ops. Mechanism 7 is deliberately
// absent: an object store has no partial overwrite, so a write-handle Seek is
// a documented divergence (pinned in TestConformanceDocumentedDivergences).
func TestConformanceInterleavedSeekWrite(t *testing.T) {
	// The golden result of the write script below, simulated on a slice.
	golden := make([]byte, 64_000)
	for i := range golden {
		golden[i] = byte(i)
	}
	patch := bytes.Repeat([]byte{0xEE}, 512)
	copy(golden[1000:], patch)
	copy(golden[63_700:], patch[:300])

	writeScript := func(t *testing.T, w interface {
		io.WriteSeeker
	}) {
		t.Helper()
		base := make([]byte, 64_000)
		for i := range base {
			base[i] = byte(i)
		}
		for off := 0; off < len(base); off += 8192 {
			end := off + 8192
			if end > len(base) {
				end = len(base)
			}
			if _, err := w.Write(base[off:end]); err != nil {
				t.Fatalf("write: %v", err)
			}
		}
		if pos, err := w.Seek(1000, io.SeekStart); err != nil || pos != 1000 {
			t.Fatalf("seek-back for overwrite: pos=%d err=%v", pos, err)
		}
		if _, err := w.Write(patch); err != nil {
			t.Fatalf("overwrite: %v", err)
		}
		if pos, err := w.Seek(63_700, io.SeekStart); err != nil || pos != 63_700 {
			t.Fatalf("seek near end: pos=%d err=%v", pos, err)
		}
		if _, err := w.Write(patch[:300]); err != nil {
			t.Fatalf("tail overwrite: %v", err)
		}
	}

	cases := []struct {
		name      string
		writer    string
		reader    string
		configure func(e *env)
	}{
		{
			name: "1-local", writer: "jagan", reader: "jagan",
			configure: func(e *env) {
				e.store.Set("jagan", "rw.dat", gns.Mapping{Mode: gns.ModeLocal})
			},
		},
		{
			name: "2-copy", writer: "vpac27", reader: "brecca",
			configure: func(e *env) {
				// Writer stages out on close; reader reads the staged-to host.
				e.store.Set("vpac27", "rw.dat", gns.Mapping{
					Mode: gns.ModeCopy, RemoteHost: "brecca" + ftpPort, RemotePath: "/dst/rw",
					LocalPath: "/staged/rw",
				})
				e.store.Set("brecca", "rw.dat", gns.Mapping{Mode: gns.ModeLocal, LocalPath: "/dst/rw"})
			},
		},
		{
			name: "3-remote", writer: "jagan", reader: "jagan",
			configure: func(e *env) {
				e.store.Set("jagan", "rw.dat", gns.Mapping{
					Mode: gns.ModeRemote, RemoteHost: "brecca" + ftpPort, RemotePath: "/r/rw",
				})
			},
		},
	}
	// Mechanism 3 gathers the script's small writes into a dirty run and
	// sends it when a backwards or overlapping write arrives; none of that
	// may be visible to a reader opening the file after Close, the
	// durability point.
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			e := newEnv()
			tc.configure(e)
			e.v.Run(func() {
				e.startServices(t)
				wfm := e.fm(t, tc.writer, nil)
				w, err := wfm.Create("rw.dat")
				if err != nil {
					t.Fatalf("create: %v", err)
				}
				writeScript(t, w)
				if err := w.Close(); err != nil {
					t.Fatalf("close: %v", err)
				}
				rfm := e.fm(t, tc.reader, nil)
				r, err := rfm.Open("rw.dat")
				if err != nil {
					t.Fatalf("reopen: %v", err)
				}
				got, err := io.ReadAll(r)
				r.Close()
				if err != nil {
					t.Fatalf("readback: %v", err)
				}
				if !bytes.Equal(got, golden) {
					t.Errorf("readback differs from the simulated script (%d vs %d bytes)", len(got), len(golden))
				}
			})
		})
	}
}

// TestConformanceDocumentedDivergences pins the behaviours that
// intentionally differ per mechanism: replicated files reject writes, Grid
// Buffer writers are sequential, buffer streams reject SeekEnd, and
// object-store files (mechanism 7) have immutable whole-object PUT — no
// partial overwrite, so write handles reject Seek and O_RDWR is refused.
func TestConformanceDocumentedDivergences(t *testing.T) {
	e := newEnv()
	e.cat.Register("d", replica.Location{Host: "brecca", Addr: "brecca" + ftpPort, Path: "/x"})
	vfs.WriteFile(e.grid.Machine("brecca").RawFS(), "/x", []byte("data"))
	e.store.Set("jagan", "rr", gns.Mapping{Mode: gns.ModeReplicaRemote, LogicalName: "d"})
	e.store.Set("jagan", "rc", gns.Mapping{Mode: gns.ModeReplicaCopy, LogicalName: "d", LocalPath: "/l/rc"})
	bm := gns.Mapping{Mode: gns.ModeBuffer, BufferHost: "jagan" + bufPort, BufferKey: "d/b"}
	e.store.Set("jagan", "bw", bm)
	e.store.Set("jagan", "obj", gns.Mapping{
		Mode: gns.ModeObject, RemoteHost: "jagan" + objPort, RemotePath: "d/obj",
	})
	e.v.Run(func() {
		e.startServices(t)
		fm := e.fm(t, "jagan", nil)
		if _, err := fm.Create("rr"); err == nil {
			t.Error("replica-remote accepted a write open")
		}
		if _, err := fm.Create("rc"); err == nil {
			t.Error("replica-copy accepted a write open")
		}
		if _, err := fm.OpenFile("obj", os.O_RDWR|os.O_CREATE, 0o644); err == nil {
			t.Error("objstore accepted an O_RDWR open of an immutable object")
		}
		ow, err := fm.Create("obj")
		if err != nil {
			t.Fatalf("objstore write open: %v", err)
		}
		if _, err := ow.Seek(0, io.SeekStart); err == nil {
			t.Error("objstore writer accepted a seek: objects have no partial overwrite")
		}
		if _, err := ow.Write([]byte("object body")); err != nil {
			t.Fatalf("objstore write: %v", err)
		}
		if err := ow.Close(); err != nil {
			t.Fatalf("objstore close (atomic PUT): %v", err)
		}
		// The commit was whole-object and atomic: the body reads back intact.
		or, err := fm.Open("obj")
		if err != nil {
			t.Fatalf("objstore read open: %v", err)
		}
		if got, _ := io.ReadAll(or); string(got) != "object body" {
			t.Errorf("objstore readback = %q", got)
		}
		or.Close()
		w, err := fm.OpenFile("bw", os.O_WRONLY|os.O_CREATE, 0o644)
		if err != nil {
			t.Fatalf("buffer write open: %v", err)
		}
		if _, err := w.Seek(0, io.SeekStart); err == nil {
			t.Error("buffer writer accepted a seek")
		}
		done := simclock.NewWaitGroup(e.v)
		done.Add(1)
		e.v.Go("drain", func() {
			defer done.Done()
			r, err := fm.Open("bw")
			if err != nil {
				t.Errorf("buffer read open: %v", err)
				return
			}
			io.Copy(io.Discard, r)
			if _, err := r.Seek(0, io.SeekEnd); err == nil {
				t.Error("buffer reader accepted SeekEnd")
			}
			r.Close()
		})
		w.Write([]byte("stream"))
		w.Close()
		done.Wait()
	})
}

// TestConformanceRemoteWriteErrorSurfacesByClose pins the one behavioural
// divergence of mechanism 3's coalescing write path: a small write is
// accepted into the handle's dirty run before it crosses the wire, so a
// transport error surfaces at the call that sends the run — here Close, the
// durability point — not at the Write. No byte is ever silently lost; only
// the op that reports the error moves.
func TestConformanceRemoteWriteErrorSurfacesByClose(t *testing.T) {
	e := newEnv()
	e.store.Set("jagan", "wb.dat", gns.Mapping{
		Mode: gns.ModeRemote, RemoteHost: "brecca" + ftpPort, RemotePath: "/r/wb",
	})
	e.v.Run(func() {
		e.startServices(t)
		fm := e.fm(t, "jagan", nil)
		w, err := fm.Create("wb.dat")
		if err != nil {
			t.Fatalf("create: %v", err)
		}
		if _, err := w.Write(bytes.Repeat([]byte("x"), 8192)); err != nil {
			t.Fatalf("buffered write reported a transport error early: %v", err)
		}
		e.grid.Network().Partition("jagan", "brecca")
		e.grid.Network().InjectReset("jagan", "brecca")
		if err := w.Close(); err == nil {
			t.Error("Close succeeded although the buffered bytes never reached the server")
		}
	})
}
