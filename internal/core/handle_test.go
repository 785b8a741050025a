package core

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"sync"
	"testing"

	"griddles/internal/gns"
	"griddles/internal/gridftp"
	"griddles/internal/obs"
	"griddles/internal/replica"
	"griddles/internal/simclock"
	"griddles/internal/vfs"
)

// TestFailedCloseIsRemembered pins the sticky close result: a mode-2 writer
// whose stage-out fails reports that error from Close — and from every later
// Close, the idiomatic deferred one included — never fires CloseNotify, and
// publishes no completion marker.
func TestFailedCloseIsRemembered(t *testing.T) {
	e := newEnv()
	e.store.Set("jagan", "out", gns.Mapping{
		Mode: gns.ModeCopy, RemoteHost: "brecca" + ftpPort, RemotePath: "/r/out",
		LocalPath: "/staged/out", WaitClose: true,
	})
	e.v.Run(func() {
		e.startServices(t)
		notified := 0
		fm := e.fm(t, "jagan", func(c *Config) { c.Hooks.CloseNotify = func(string) { notified++ } })
		w, err := fm.Create("out")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.Write([]byte("never leaves the machine")); err != nil {
			t.Fatal(err)
		}
		e.grid.Network().Partition("jagan", "brecca")
		first := w.Close()
		if first == nil {
			t.Fatal("Close succeeded although the stage-out could not reach brecca")
		}
		e.grid.Network().Heal("jagan", "brecca")
		if again := w.Close(); again != first {
			t.Errorf("second Close = %v, want the first result %v", again, first)
		}
		if notified != 0 {
			t.Errorf("CloseNotify fired %d times for a file that never left the machine", notified)
		}
		if vfs.Exists(e.grid.Machine("brecca").RawFS(), "/r/out"+DoneSuffix) {
			t.Error("completion marker published after a failed stage-out")
		}
	})
}

// TestReplicaOpenFailoverKeepsCache pins that a mechanism-4 handle which
// failed over at OPEN (best replica unreachable) is cached like any other:
// a second pass over the file through the same FM is served from memory.
func TestReplicaOpenFailoverKeepsCache(t *testing.T) {
	e := newEnv()
	data := replicatedDataset(e, "vpac27", "ds", 200_000)
	e.v.Run(func() {
		e.startServices(t)
		observer := obs.New(e.v)
		fm := e.fm(t, "vpac27", func(c *Config) {
			c.Retry = fmPolicy()
			c.Obs = observer
			c.BlockCacheBytes = 8 << 20
		})
		e.grid.Network().Partition("vpac27", "bouscat")
		pass := func() {
			t.Helper()
			r, err := fm.Open("ds")
			if err != nil {
				t.Fatalf("open with best replica dead: %v", err)
			}
			defer r.Close()
			if got, err := io.ReadAll(r); err != nil || string(got) != string(data) {
				t.Fatalf("read %d bytes, %v", len(got), err)
			}
		}
		pass()
		trips := observer.Snapshot().Counters["ftp.readahead.miss.total"]
		if trips == 0 {
			t.Fatal("first pass recorded no wire round trips")
		}
		pass()
		snap := observer.Snapshot()
		if snap.Counters["fm.cache.hit.total"] == 0 {
			t.Error("second pass recorded no cache hits: the failed-over handle was uncached")
		}
		if after := snap.Counters["ftp.readahead.miss.total"]; after != trips {
			t.Errorf("second pass cost %d extra wire round trips", after-trips)
		}
	})
}

// TestHandleTable opens every registered scheme read-only and write-only
// through a real FM and checks what the one handle promises whatever is bound
// underneath: the refused direction (and a seek on a sequential writer) fails
// and counts nothing, IO after Close fails — a cached handle included — and
// fm.read.bytes / fm.write.bytes equal the bytes delivered.
func TestHandleTable(t *testing.T) {
	const host = "brecca"
	content := confContent()
	mappings := map[string]gns.Mapping{
		"local":          {Mode: gns.ModeLocal, LocalPath: "/t/local"},
		"copy":           {Mode: gns.ModeCopy, RemoteHost: host + ftpPort, RemotePath: "/t/copy", LocalPath: "/staged/copy"},
		"remote":         {Mode: gns.ModeRemote, RemoteHost: host + ftpPort, RemotePath: "/t/remote"},
		"replica-remote": {Mode: gns.ModeReplicaRemote, LogicalName: "tds"},
		"replica-copy":   {Mode: gns.ModeReplicaCopy, LogicalName: "tds", LocalPath: "/staged/rep"},
		"buffer":         {Mode: gns.ModeBuffer, BufferHost: "jagan" + bufPort, BufferKey: "t/stream", CacheEnabled: true},
		"auto":           {Mode: gns.ModeAuto, RemoteHost: host + ftpPort, RemotePath: "/t/auto"},
		"objstore":       {Mode: gns.ModeObject, RemoteHost: host + objPort, RemotePath: "t/obj"},
	}
	// The replicated schemes refuse write opens; the buffer and the object
	// store write sequentially and refuse a seek on a writer.
	readOnly := map[string]bool{"replica-remote": true, "replica-copy": true}
	sequentialWriter := map[string]bool{"buffer": true, "objstore": true}
	if got := DefaultRegistry().Schemes(); len(got) != len(mappings) {
		t.Fatalf("table covers %d schemes, registry has %v", len(mappings), got)
	}
	for _, cacheBytes := range []int64{0, 8 << 20} {
		for _, scheme := range DefaultRegistry().Schemes() {
			t.Run(fmt.Sprintf("%s/cache=%d", scheme, cacheBytes), func(t *testing.T) {
				e := newEnv()
				vfs.WriteFile(e.grid.Machine("jagan").RawFS(), "/t/local", content)
				for _, p := range []string{"/t/copy", "/t/remote", "/t/auto"} {
					vfs.WriteFile(e.grid.Machine(host).RawFS(), p, content)
				}
				for _, h := range []string{"bouscat", host} {
					vfs.WriteFile(e.grid.Machine(h).RawFS(), "/rep/t", content)
					e.cat.Register("tds", replica.Location{Host: h, Addr: h + ftpPort, Path: "/rep/t"})
				}
				e.objs[host].Put("t/obj", content)
				for _, machine := range []string{"jagan", host} {
					e.store.Set(machine, "f", mappings[scheme])
				}
				e.v.Run(func() {
					e.startServices(t)
					fm := e.fm(t, "jagan", func(c *Config) { c.BlockCacheBytes = cacheBytes })
					// A buffer handle needs its peer: a producer for the reader, a
					// drain for the writer, through a second FM.
					peer := e.fm(t, host, nil)
					peers := simclock.NewWaitGroup(e.v)
					withPeer := func(run func()) {
						if scheme == "buffer" {
							peers.Add(1)
							e.v.Go("peer", func() { defer peers.Done(); run() })
						}
					}
					stats := fm.Stats()

					withPeer(func() {
						w, err := peer.Create("f")
						if err != nil {
							t.Errorf("peer create: %v", err)
							return
						}
						w.Write(content)
						w.Close()
					})
					r, err := fm.Open("f")
					if err != nil {
						t.Fatalf("read-only open: %v", err)
					}
					if n, err := r.Write([]byte("x")); err == nil || n != 0 {
						t.Errorf("read-only handle accepted a write: %d, %v", n, err)
					}
					got, err := io.ReadAll(r)
					if err != nil || len(got) != len(content) {
						t.Fatalf("read %d of %d bytes, %v", len(got), len(content), err)
					}
					if stats.BytesRead() != int64(len(got)) || stats.BytesWritten() != 0 {
						t.Errorf("after reading %d bytes: fm.read.bytes=%d fm.write.bytes=%d", len(got), stats.BytesRead(), stats.BytesWritten())
					}
					if err := r.Close(); err != nil {
						t.Errorf("close: %v", err)
					}
					checkDeadHandle(t, r, stats)
					peers.Wait()

					if scheme == "buffer" {
						// A Grid Buffer carries one stream: the write phase gets its own.
						m := mappings[scheme]
						m.BufferKey = "t/stream2"
						e.store.Set("jagan", "f", m)
						e.store.Set(host, "f", m)
					}
					w, err := fm.OpenFile("f", os.O_WRONLY|os.O_CREATE, 0o644)
					if readOnly[scheme] {
						if err == nil {
							t.Error("read-only backend accepted a write-only open")
						}
						return
					}
					if err != nil {
						t.Fatalf("write-only open: %v", err)
					}
					withPeer(func() {
						r, err := peer.Open("f")
						if err != nil {
							t.Errorf("peer open: %v", err)
							return
						}
						io.Copy(io.Discard, r)
						r.Close()
					})
					if n, err := w.Read(make([]byte, 16)); err == nil || n != 0 {
						t.Errorf("write-only handle served a read: %d, %v", n, err)
					}
					if sequentialWriter[scheme] {
						if _, err := w.Seek(0, io.SeekStart); err == nil {
							t.Error("sequential writer accepted a seek")
						}
					}
					if n, err := w.Write(content[:4096]); err != nil || n != 4096 {
						t.Fatalf("write: %d, %v", n, err)
					}
					if stats.BytesWritten() != 4096 || stats.BytesRead() != int64(len(got)) {
						t.Errorf("after writing 4096 bytes: fm.write.bytes=%d, fm.read.bytes moved by %d", stats.BytesWritten(), stats.BytesRead()-int64(len(got)))
					}
					if err := w.Close(); err != nil {
						t.Errorf("close: %v", err)
					}
					checkDeadHandle(t, w, stats)
					peers.Wait()
				})
			})
		}
	}
}

// checkDeadHandle requires every call on a closed handle to fail without
// moving the byte counters, and a repeated Close to report the first result.
func checkDeadHandle(t *testing.T, f File, stats *Stats) {
	t.Helper()
	read, written := stats.BytesRead(), stats.BytesWritten()
	if n, err := f.Read(make([]byte, 16)); err == nil || n != 0 {
		t.Errorf("Read after Close = %d, %v", n, err)
	}
	if n, err := f.Write([]byte("x")); err == nil || n != 0 {
		t.Errorf("Write after Close = %d, %v", n, err)
	}
	if _, err := f.Seek(0, io.SeekStart); err == nil {
		t.Error("Seek after Close succeeded")
	}
	if stats.BytesRead() != read || stats.BytesWritten() != written {
		t.Error("IO after Close moved the byte counters")
	}
	if err := f.Close(); err != nil {
		t.Errorf("second Close = %v after a clean first one", err)
	}
}

// eventLog records file-system and notification events in arrival order.
type eventLog struct {
	mu     sync.Mutex
	events []string
	onAdd  func(ev string) // called under mu
}

func (l *eventLog) add(ev string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.onAdd != nil {
		l.onAdd(ev)
	}
	l.events = append(l.events, ev)
}

// requireOrder fails unless every event of want was logged, in that order.
func (l *eventLog) requireOrder(t *testing.T, want ...string) {
	t.Helper()
	l.mu.Lock()
	defer l.mu.Unlock()
	next := 0
	for _, ev := range l.events {
		if next < len(want) && ev == want[next] {
			next++
		}
	}
	if next < len(want) {
		t.Errorf("event %q missing or out of order; want %q in\n%q", want[next], want, l.events)
	}
}

// recFS logs "<who> create <name>" for every open with write intent and
// "<who> close <name>" for every close on the file system under it.
type recFS struct {
	vfs.FS
	who string
	log *eventLog
}

func (r recFS) OpenFile(name string, flag int, perm fs.FileMode) (vfs.File, error) {
	f, err := r.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	if flag&(os.O_WRONLY|os.O_RDWR) != 0 {
		r.log.add(r.who + " create " + name)
	}
	return recFile{f, r, name}, nil
}

type recFile struct {
	vfs.File
	fs   recFS
	name string
}

func (f recFile) Close() error {
	err := f.File.Close()
	f.fs.log.add(f.fs.who + " close " + f.name)
	return err
}

// TestHandleCloseOrder pins the order of the close steps with recording file
// systems on both machines: transport close, then stage-out, then the
// completion marker, then CloseNotify — and the prefetch pipeline stopped
// before the transport closes.
func TestHandleCloseOrder(t *testing.T) {
	const recPort = ":6001"
	e := newEnv()
	e.store.Set("jagan", "m1", gns.Mapping{Mode: gns.ModeLocal, LocalPath: "/l/m1", WaitClose: true})
	e.store.Set("jagan", "m2", gns.Mapping{
		Mode: gns.ModeCopy, RemoteHost: "brecca" + recPort, RemotePath: "/r/m2", LocalPath: "/l/m2", WaitClose: true,
	})
	e.store.Set("jagan", "m3", gns.Mapping{
		Mode: gns.ModeRemote, RemoteHost: "brecca" + recPort, RemotePath: "/r/m3", WaitClose: true,
	})
	e.v.Run(func() {
		log := &eventLog{}
		brecca := e.grid.Machine("brecca")
		l, err := brecca.Listen(recPort)
		if err != nil {
			t.Fatal(err)
		}
		e.v.Go("rec-ftp", func() { gridftp.NewServer(recFS{brecca.FS(), "brecca", log}, e.v).Serve(l) })
		fm := e.fm(t, "jagan", func(c *Config) {
			c.FS = recFS{c.FS, "jagan", log}
			c.Hooks.CloseNotify = func(path string) { log.add("notify " + path) }
			c.BlockCacheBytes = 8 << 20
			c.PrefetchWindow = 2
		})
		for _, path := range []string{"m1", "m2", "m3"} {
			w, err := fm.Create(path)
			if err != nil {
				t.Fatalf("%s: %v", path, err)
			}
			if _, err := w.Write(confContent()); err != nil {
				t.Fatalf("%s: %v", path, err)
			}
			if err := w.Close(); err != nil {
				t.Fatalf("%s close: %v", path, err)
			}
		}
		log.requireOrder(t, "jagan close /l/m1", "jagan create /l/m1"+DoneSuffix, "notify m1")
		log.requireOrder(t, "jagan close /l/m2", "brecca create /r/m2", "brecca create /r/m2"+DoneSuffix, "notify m2")
		log.requireOrder(t, "brecca close /r/m3", "brecca create /r/m3"+DoneSuffix, "notify m3")

		// A mode-3 reader: the pipeline is stopped by the time the server
		// sees the handle close.
		r, err := fm.Open("m3")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(r, make([]byte, 4096)); err != nil {
			t.Fatal(err)
		}
		pf := r.(*handle).pf
		if pf == nil {
			t.Fatal("cached mode-3 reader has no prefetch pipeline")
		}
		stoppedFirst := errors.New("server never saw the close")
		log.mu.Lock()
		log.onAdd = func(ev string) {
			if ev == "brecca close /r/m3" {
				pf.mu.Lock()
				stoppedFirst = nil
				if !pf.closed {
					stoppedFirst = errors.New("transport closed while the prefetch pipeline was still running")
				}
				pf.mu.Unlock()
			}
		}
		log.mu.Unlock()
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
		if stoppedFirst != nil {
			t.Error(stoppedFirst)
		}
	})
}
