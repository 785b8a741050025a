package core

import (
	"bytes"
	"io"
	"math/rand"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"griddles/internal/gns"
	"griddles/internal/gridbuffer"
	"griddles/internal/gridftp"
	"griddles/internal/nws"
	"griddles/internal/objstore"
	"griddles/internal/replica"
	"griddles/internal/simclock"
	"griddles/internal/soap"
	"griddles/internal/testbed"
	"griddles/internal/vfs"
)

// The well-known service ports tests use.
const (
	ftpPort  = ":6000"
	bufPort  = ":7000"
	soapPort = ":7001"
	objPort  = ":7100"
)

// env is a miniature grid with every GriddLeS service running on it.
type env struct {
	v     *simclock.Virtual
	grid  *testbed.Grid
	store *gns.Store
	cat   *replica.Catalog
	nws   *nws.Service
	objs  map[string]*objstore.Store // per-machine object tables
}

func newEnv() *env {
	v := simclock.NewVirtualDefault()
	e := &env{
		v:     v,
		grid:  testbed.DefaultGrid(v),
		store: gns.NewStore(v),
		cat:   replica.NewCatalog(),
		nws:   nws.NewService(),
		objs:  make(map[string]*objstore.Store),
	}
	for name := range e.grid.Machines() {
		e.objs[name] = objstore.NewStore()
	}
	return e
}

// startServices must run inside v.Run: it brings up a file service, a
// buffer service (binary and SOAP endpoints of one server) and an object
// store on every machine.
func (e *env) startServices(t *testing.T) {
	t.Helper()
	for name, m := range e.grid.Machines() {
		m := m
		lf, err := m.Listen(ftpPort)
		if err != nil {
			t.Fatalf("%s ftp listen: %v", name, err)
		}
		e.v.Go(name+"-ftp", func() { gridftp.NewServer(m.FS(), e.v).Serve(lf) })
		lb, err := m.Listen(bufPort)
		if err != nil {
			t.Fatalf("%s buffer listen: %v", name, err)
		}
		srv := gridbuffer.NewServer(gridbuffer.NewRegistry(e.v, m.FS()), e.v)
		e.v.Go(name+"-buf", func() { srv.Serve(lb) })
		ls, err := m.Listen(soapPort)
		if err != nil {
			t.Fatalf("%s soap listen: %v", name, err)
		}
		e.v.Go(name+"-soap", func() { soap.Serve(ls, e.v, srv.ServeConn) })
		lo, err := m.Listen(objPort)
		if err != nil {
			t.Fatalf("%s objstore listen: %v", name, err)
		}
		store := e.objs[name]
		e.v.Go(name+"-obj", func() { objstore.NewServer(store, e.v).Serve(lo) })
	}
}

// fm builds a Multiplexer for a component on the named machine.
func (e *env) fm(t *testing.T, machine string, extra func(*Config)) *Multiplexer {
	t.Helper()
	m := e.grid.Machine(machine)
	cfg := Config{
		Machine:  machine,
		Clock:    e.v,
		FS:       m.FS(),
		Dialer:   m,
		GNS:      e.store,
		Replicas: replica.CatalogLookuper{Catalog: e.cat},
		NWS:      e.nws,
	}
	if extra != nil {
		extra(&cfg)
	}
	fm, err := New(cfg)
	if err != nil {
		t.Fatalf("fm: %v", err)
	}
	return fm
}

// TestConfigValidation: New refuses missing wiring and every configuration
// string it does not know, naming the field, instead of leaving the mistake to
// the first OPEN that would use it.
func TestConfigValidation(t *testing.T) {
	e := newEnv()
	for _, tc := range []struct {
		name    string
		set     func(*Config)
		wantErr string
	}{
		{"empty", func(c *Config) { *c = Config{} }, "requires Machine"},
		{"transport", func(c *Config) { c.Buffer.Transport = "SOAP" }, "Config.Buffer.Transport"},
		{"codec", func(c *Config) { c.WireCodec = "zstd" }, "Config.WireCodec"},
		{"byte order", func(c *Config) { c.ByteOrder = "middle" }, "Config.ByteOrder"},
	} {
		m := e.grid.Machine("jagan")
		cfg := Config{Machine: "jagan", Clock: e.v, FS: m.FS(), Dialer: m, GNS: e.store}
		tc.set(&cfg)
		if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: New = %v, want an error naming %q", tc.name, err, tc.wantErr)
		}
	}
}

// TestPaper2004Explicit: the 2004 set spells every numeric tuning value, also
// the ones that equal today's default, so a default can move in this package
// without moving Tables 2–5. Only what the prototype did not have stays zero.
func TestPaper2004Explicit(t *testing.T) {
	absent := map[string]string{
		"BlockCacheBytes": "no FM block cache in 2004",
		"PrefetchWindow":  "no prefetch",
		"RemapInterval":   "no mid-read remap",
		"Retry":           "one attempt, no deadline",
		"Heuristic":       "ModeAuto's cost model; no table binds a file with it",
	}
	var walk func(prefix string, v reflect.Value)
	walk = func(prefix string, v reflect.Value) {
		for i := 0; i < v.NumField(); i++ {
			f, name := v.Field(i), v.Type().Field(i).Name
			if _, ok := absent[name]; ok {
				continue
			}
			switch f.Kind() {
			case reflect.Struct:
				walk(prefix+name+".", f)
			case reflect.Int, reflect.Int64, reflect.Float64:
				if f.IsZero() {
					t.Errorf("Paper2004().%s%s is zero: spell the 2004 value, or list it as absent in 2004", prefix, name)
				}
			}
		}
	}
	walk("", reflect.ValueOf(Paper2004()))
	if tr := Paper2004().Buffer.Transport; tr != TransportPerCall {
		t.Errorf("Paper2004().Buffer.Transport = %q, want %q", tr, TransportPerCall)
	}
}

func TestLocalPassthrough(t *testing.T) {
	e := newEnv()
	e.v.Run(func() {
		fm := e.fm(t, "jagan", nil)
		w, err := fm.Create("JOB.DAT")
		if err != nil {
			t.Fatal(err)
		}
		w.Write([]byte("local bytes"))
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		r, err := fm.Open("JOB.DAT")
		if err != nil {
			t.Fatal(err)
		}
		got, _ := io.ReadAll(r)
		r.Close()
		if string(got) != "local bytes" {
			t.Errorf("got %q", got)
		}
		if fm.Stats().Opens(gns.ModeLocal) != 2 {
			t.Errorf("stats: %s", fm.Stats())
		}
		// The file physically exists on jagan's file system.
		if !vfs.Exists(e.grid.Machine("jagan").RawFS(), "JOB.DAT") {
			t.Error("file not on local fs")
		}
	})
}

func TestLocalPathRewrite(t *testing.T) {
	e := newEnv()
	e.store.Set("jagan", "INPUT", gns.Mapping{Mode: gns.ModeLocal, LocalPath: "/real/location"})
	vfs.WriteFile(e.grid.Machine("jagan").RawFS(), "/real/location", []byte("aliased"))
	e.v.Run(func() {
		fm := e.fm(t, "jagan", nil)
		r, err := fm.Open("INPUT")
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		if r.Name() != "INPUT" {
			t.Errorf("Name() = %q, want the OPEN path", r.Name())
		}
		got, _ := io.ReadAll(r)
		if string(got) != "aliased" {
			t.Errorf("got %q", got)
		}
	})
}

func TestRemoteMode(t *testing.T) {
	e := newEnv()
	want := make([]byte, 100_000)
	rand.New(rand.NewSource(1)).Read(want)
	vfs.WriteFile(e.grid.Machine("brecca").RawFS(), "/data/big", want)
	e.store.Set("jagan", "big", gns.Mapping{
		Mode: gns.ModeRemote, RemoteHost: "brecca" + ftpPort, RemotePath: "/data/big",
	})
	e.v.Run(func() {
		e.startServices(t)
		fm := e.fm(t, "jagan", nil)
		r, err := fm.Open("big")
		if err != nil {
			t.Fatal(err)
		}
		got, _ := io.ReadAll(r)
		r.Close()
		if !bytes.Equal(got, want) {
			t.Error("remote read corrupted")
		}
		// No local copy was made: this is proxy access, not staging.
		if vfs.Exists(e.grid.Machine("jagan").RawFS(), "big") {
			t.Error("remote mode staged a local copy")
		}
	})
}

func TestRemoteWriteMode(t *testing.T) {
	e := newEnv()
	e.store.Set("jagan", "out", gns.Mapping{
		Mode: gns.ModeRemote, RemoteHost: "brecca" + ftpPort, RemotePath: "/results/out",
	})
	e.v.Run(func() {
		e.startServices(t)
		fm := e.fm(t, "jagan", nil)
		w, err := fm.OpenFile("out", os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		w.Write([]byte("remote result"))
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		got, _ := vfs.ReadFile(e.grid.Machine("brecca").RawFS(), "/results/out")
		if string(got) != "remote result" {
			t.Errorf("remote file = %q", got)
		}
	})
}

func TestCopyModeStageInAndOut(t *testing.T) {
	e := newEnv()
	want := make([]byte, 50_000)
	rand.New(rand.NewSource(2)).Read(want)
	vfs.WriteFile(e.grid.Machine("dione").RawFS(), "/src/input", want)
	e.store.Set("vpac27", "input", gns.Mapping{
		Mode: gns.ModeCopy, RemoteHost: "dione" + ftpPort, RemotePath: "/src/input", LocalPath: "/staged/input",
	})
	e.store.Set("vpac27", "output", gns.Mapping{
		Mode: gns.ModeCopy, RemoteHost: "dione" + ftpPort, RemotePath: "/dst/output", LocalPath: "/staged/output",
	})
	e.v.Run(func() {
		e.startServices(t)
		fm := e.fm(t, "vpac27", nil)

		// Stage in: the open copies the file local, then reads locally.
		r, err := fm.Open("input")
		if err != nil {
			t.Fatal(err)
		}
		got, _ := io.ReadAll(r)
		r.Close()
		if !bytes.Equal(got, want) {
			t.Error("staged read corrupted")
		}
		if !vfs.Exists(e.grid.Machine("vpac27").RawFS(), "/staged/input") {
			t.Error("no local staged copy")
		}
		if fm.Stats().StagedIn() != int64(len(want)) {
			t.Errorf("stagedIn = %d", fm.Stats().StagedIn())
		}

		// Stage out: close pushes the written file back.
		w, err := fm.Create("output")
		if err != nil {
			t.Fatal(err)
		}
		w.Write([]byte("computed"))
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		back, _ := vfs.ReadFile(e.grid.Machine("dione").RawFS(), "/dst/output")
		if string(back) != "computed" {
			t.Errorf("staged-out file = %q", back)
		}
	})
}

func TestWaitCloseLocalCoordination(t *testing.T) {
	e := newEnv()
	e.store.Set("jagan", "pipe.dat", gns.Mapping{Mode: gns.ModeLocal, WaitClose: true})
	e.v.Run(func() {
		fm := e.fm(t, "jagan", nil)
		var openedAt time.Duration
		done := simclock.NewWaitGroup(e.v)
		done.Add(1)
		e.v.Go("reader", func() {
			defer done.Done()
			r, err := fm.Open("pipe.dat") // blocks polling for the marker
			if err != nil {
				t.Errorf("open: %v", err)
				return
			}
			openedAt = e.v.Elapsed()
			got, _ := io.ReadAll(r)
			r.Close()
			if string(got) != "finished product" {
				t.Errorf("read %q", got)
			}
		})
		e.v.Sleep(30 * time.Second) // writer is slow to start
		w, _ := fm.Create("pipe.dat")
		w.Write([]byte("finished product"))
		w.Close()
		done.Wait()
		if openedAt < 30*time.Second {
			t.Errorf("reader opened at %v, before the writer closed", openedAt)
		}
		if fm.Stats().Polls() == 0 {
			t.Error("no polls recorded")
		}
	})
}

func TestWaitCloseRemoteCoordination(t *testing.T) {
	e := newEnv()
	// Writer on brecca writes locally (with marker); reader on bouscat
	// stages the file over the WAN once complete.
	e.store.Set("brecca", "stage.dat", gns.Mapping{Mode: gns.ModeLocal, WaitClose: true})
	e.store.Set("bouscat", "stage.dat", gns.Mapping{
		Mode: gns.ModeCopy, RemoteHost: "brecca" + ftpPort, RemotePath: "stage.dat", WaitClose: true,
	})
	e.v.Run(func() {
		e.startServices(t)
		wfm := e.fm(t, "brecca", nil)
		rfm := e.fm(t, "bouscat", nil)
		want := make([]byte, 200_000)
		rand.New(rand.NewSource(3)).Read(want)
		done := simclock.NewWaitGroup(e.v)
		done.Add(1)
		e.v.Go("reader", func() {
			defer done.Done()
			r, err := rfm.Open("stage.dat")
			if err != nil {
				t.Errorf("open: %v", err)
				return
			}
			got, _ := io.ReadAll(r)
			r.Close()
			if !bytes.Equal(got, want) {
				t.Error("WAN staged read corrupted")
			}
		})
		e.v.Sleep(10 * time.Second)
		w, _ := wfm.Create("stage.dat")
		w.Write(want)
		w.Close()
		done.Wait()
	})
}

func TestBufferModeEndToEnd(t *testing.T) {
	e := newEnv()
	// Writer on brecca, buffer service on vpac27 (reader end), reader on
	// vpac27 — the paper's usual placement.
	mapping := gns.Mapping{
		Mode: gns.ModeBuffer, BufferHost: "vpac27" + bufPort, BufferKey: "wf/JOB.SF",
	}
	e.store.Set("brecca", "JOB.SF", mapping)
	e.store.Set("vpac27", "JOB.SF", mapping)
	want := make([]byte, 300_000)
	rand.New(rand.NewSource(4)).Read(want)
	e.v.Run(func() {
		e.startServices(t)
		wfm := e.fm(t, "brecca", nil)
		rfm := e.fm(t, "vpac27", nil)
		var got []byte
		done := simclock.NewWaitGroup(e.v)
		done.Add(1)
		e.v.Go("reader", func() {
			defer done.Done()
			r, err := rfm.Open("JOB.SF")
			if err != nil {
				t.Errorf("reader open: %v", err)
				return
			}
			defer r.Close()
			got, _ = io.ReadAll(r)
		})
		w, err := wfm.Create("JOB.SF")
		if err != nil {
			t.Fatal(err)
		}
		w.Write(want)
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		done.Wait()
		if !bytes.Equal(got, want) {
			t.Error("buffer stream corrupted")
		}
		// No file was ever written: this is direct coupling.
		if vfs.Exists(e.grid.Machine("brecca").RawFS(), "JOB.SF") ||
			vfs.Exists(e.grid.Machine("vpac27").RawFS(), "JOB.SF") {
			t.Error("buffer mode created a file")
		}
	})
}

func TestBufferReadWriteFlagRejected(t *testing.T) {
	e := newEnv()
	e.store.Set("jagan", "b", gns.Mapping{Mode: gns.ModeBuffer, BufferHost: "jagan" + bufPort})
	e.v.Run(func() {
		e.startServices(t)
		fm := e.fm(t, "jagan", nil)
		if _, err := fm.OpenFile("b", os.O_RDWR, 0); err == nil {
			t.Error("O_RDWR buffer open succeeded")
		}
	})
}

func TestReplicaCopyPrefersNearReplica(t *testing.T) {
	e := newEnv()
	data := []byte("replicated dataset contents")
	vfs.WriteFile(e.grid.Machine("bouscat").RawFS(), "/rep/ds", data)
	vfs.WriteFile(e.grid.Machine("brecca").RawFS(), "/rep/ds", data)
	e.cat.Register("dataset", replica.Location{Host: "bouscat", Addr: "bouscat" + ftpPort, Path: "/rep/ds"})
	e.cat.Register("dataset", replica.Location{Host: "brecca", Addr: "brecca" + ftpPort, Path: "/rep/ds"})
	// NWS knows brecca is near vpac27 and bouscat is far.
	now := time.Unix(0, 0)
	e.nws.Record("brecca", "vpac27", nws.MetricLatency, now, 0.0003)
	e.nws.Record("brecca", "vpac27", nws.MetricBandwidth, now, 6e6)
	e.nws.Record("bouscat", "vpac27", nws.MetricLatency, now, 0.15)
	e.nws.Record("bouscat", "vpac27", nws.MetricBandwidth, now, 2e5)
	e.store.Set("vpac27", "ds", gns.Mapping{Mode: gns.ModeReplicaCopy, LogicalName: "dataset", LocalPath: "/local/ds"})
	e.v.Run(func() {
		e.startServices(t)
		fm := e.fm(t, "vpac27", nil)
		r, err := fm.Open("ds")
		if err != nil {
			t.Fatal(err)
		}
		got, _ := io.ReadAll(r)
		r.Close()
		if !bytes.Equal(got, data) {
			t.Error("replica copy corrupted")
		}
		choices := fm.Stats().ReplicaChoices()
		if choices["brecca"] != 1 || choices["bouscat"] != 0 {
			t.Errorf("replica choices = %v, want the near copy", choices)
		}
	})
}

func TestReplicaRemoteDynamicRemap(t *testing.T) {
	e := newEnv()
	data := make([]byte, 2_000_000)
	rand.New(rand.NewSource(5)).Read(data)
	vfs.WriteFile(e.grid.Machine("bouscat").RawFS(), "/rep/ds", data)
	vfs.WriteFile(e.grid.Machine("brecca").RawFS(), "/rep/ds", data)
	e.cat.Register("dataset", replica.Location{Host: "bouscat", Addr: "bouscat" + ftpPort, Path: "/rep/ds"})
	e.cat.Register("dataset", replica.Location{Host: "brecca", Addr: "brecca" + ftpPort, Path: "/rep/ds"})
	now := time.Unix(0, 0)
	// Initially bouscat looks best.
	e.nws.Record("bouscat", "vpac27", nws.MetricLatency, now, 0.001)
	e.nws.Record("brecca", "vpac27", nws.MetricLatency, now, 0.5)
	e.store.Set("vpac27", "ds", gns.Mapping{Mode: gns.ModeReplicaRemote, LogicalName: "dataset"})
	e.v.Run(func() {
		e.startServices(t)
		fm := e.fm(t, "vpac27", func(c *Config) { c.RemapInterval = 5 * time.Second })
		r, err := fm.Open("ds")
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		rf := boundReplica(r)
		if rf.Location().Host != "bouscat" {
			t.Fatalf("initial binding = %s", rf.Location().Host)
		}
		buf := make([]byte, 4096)
		var got []byte
		readSome := func(n int) {
			for i := 0; i < n; i++ {
				k, err := r.Read(buf)
				got = append(got, buf[:k]...)
				if err != nil {
					t.Fatalf("read: %v", err)
				}
			}
		}
		readSome(20)
		// Conditions change: brecca becomes far better.
		later := time.Unix(100, 0)
		for i := 0; i < 30; i++ {
			e.nws.Record("bouscat", "vpac27", nws.MetricLatency, later, 1.0)
			e.nws.Record("brecca", "vpac27", nws.MetricLatency, later, 0.0003)
		}
		e.v.Sleep(10 * time.Second) // exceed the remap interval
		readSome(20)
		if rf.Location().Host != "brecca" {
			t.Errorf("after NWS shift binding = %s, want brecca", rf.Location().Host)
		}
		if fm.Stats().Remaps() == 0 {
			t.Error("no remap recorded")
		}
		// Stream content is seamless across the re-bind.
		rest, _ := io.ReadAll(r)
		got = append(got, rest...)
		if !bytes.Equal(got, data) {
			t.Error("re-bound stream corrupted")
		}
	})
}

func TestReplicaModeWriteRejected(t *testing.T) {
	e := newEnv()
	e.cat.Register("d", replica.Location{Host: "brecca", Addr: "brecca" + ftpPort, Path: "/x"})
	e.store.Set("jagan", "d", gns.Mapping{Mode: gns.ModeReplicaRemote, LogicalName: "d"})
	e.store.Set("jagan", "d2", gns.Mapping{Mode: gns.ModeReplicaCopy, LogicalName: "d"})
	e.v.Run(func() {
		e.startServices(t)
		fm := e.fm(t, "jagan", nil)
		if _, err := fm.Create("d"); err == nil {
			t.Error("write to replica-remote succeeded")
		}
		if _, err := fm.Create("d2"); err == nil {
			t.Error("write to replica-copy succeeded")
		}
	})
}

func TestReplicaWithoutCatalogFails(t *testing.T) {
	e := newEnv()
	e.store.Set("jagan", "d", gns.Mapping{Mode: gns.ModeReplicaRemote, LogicalName: "d"})
	e.v.Run(func() {
		m := e.grid.Machine("jagan")
		fm, _ := New(Config{Machine: "jagan", Clock: e.v, FS: m.FS(), Dialer: m, GNS: e.store})
		if _, err := fm.Open("d"); err == nil {
			t.Error("replica mode without catalogue succeeded")
		}
	})
}

func TestStat(t *testing.T) {
	e := newEnv()
	vfs.WriteFile(e.grid.Machine("jagan").RawFS(), "here", []byte("abc"))
	vfs.WriteFile(e.grid.Machine("brecca").RawFS(), "/r/there", []byte("defg"))
	e.store.Set("jagan", "there", gns.Mapping{Mode: gns.ModeRemote, RemoteHost: "brecca" + ftpPort, RemotePath: "/r/there"})
	e.v.Run(func() {
		e.startServices(t)
		fm := e.fm(t, "jagan", nil)
		if size, ok, _ := fm.Stat("here"); !ok || size != 3 {
			t.Errorf("local stat = %d %v", size, ok)
		}
		if size, ok, _ := fm.Stat("there"); !ok || size != 4 {
			t.Errorf("remote stat = %d %v", size, ok)
		}
		if _, ok, _ := fm.Stat("nowhere"); ok {
			t.Error("missing file stat ok")
		}
	})
}

// The headline property: the same application code runs under three
// different GNS configurations with no change.
func TestSameCodeThreeConfigurations(t *testing.T) {
	producer := func(fm *Multiplexer) error {
		w, err := fm.Create("chain.dat")
		if err != nil {
			return err
		}
		for i := 0; i < 100; i++ {
			if _, err := w.Write(bytes.Repeat([]byte{byte(i)}, 1000)); err != nil {
				return err
			}
		}
		return w.Close()
	}
	consumer := func(fm *Multiplexer) (int, error) {
		r, err := fm.Open("chain.dat")
		if err != nil {
			return 0, err
		}
		defer r.Close()
		n, err := io.Copy(io.Discard, r)
		return int(n), err
	}

	configure := map[string]func(e *env){
		"local-files": func(e *env) {
			e.store.Set("brecca", "chain.dat", gns.Mapping{Mode: gns.ModeLocal, WaitClose: true})
		},
		"staged-copy": func(e *env) {
			e.store.Set("brecca", "chain.dat", gns.Mapping{Mode: gns.ModeLocal, WaitClose: true})
			e.store.Set("vpac27", "chain.dat", gns.Mapping{
				Mode: gns.ModeCopy, RemoteHost: "brecca" + ftpPort, RemotePath: "chain.dat", WaitClose: true,
			})
		},
		"grid-buffer": func(e *env) {
			m := gns.Mapping{Mode: gns.ModeBuffer, BufferHost: "vpac27" + bufPort, BufferKey: "w/chain"}
			e.store.Set("brecca", "chain.dat", m)
			e.store.Set("vpac27", "chain.dat", m)
		},
	}
	for name, conf := range configure {
		t.Run(name, func(t *testing.T) {
			e := newEnv()
			conf(e)
			readerMachine := "vpac27"
			if name == "local-files" {
				readerMachine = "brecca"
			}
			e.v.Run(func() {
				e.startServices(t)
				pfm := e.fm(t, "brecca", nil)
				cfm := e.fm(t, readerMachine, nil)
				var got int
				var rerr error
				done := simclock.NewWaitGroup(e.v)
				done.Add(1)
				e.v.Go("consumer", func() {
					defer done.Done()
					got, rerr = consumer(cfm)
				})
				if err := producer(pfm); err != nil {
					t.Fatalf("producer: %v", err)
				}
				done.Wait()
				if rerr != nil {
					t.Fatalf("consumer: %v", rerr)
				}
				if got != 100_000 {
					t.Errorf("consumer read %d bytes, want 100000", got)
				}
			})
		})
	}
}
