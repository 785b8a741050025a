package core

import (
	"io"
	"os"
	"testing"
	"time"

	"griddles/internal/gns"
	"griddles/internal/gridbuffer"
	"griddles/internal/simclock"
	"griddles/internal/vfs"
)

// These tests inject failures into the service fabric and check the FM
// surfaces errors instead of hanging or corrupting data.

func TestOpenAgainstDeadFileServiceFails(t *testing.T) {
	e := newEnv()
	e.store.Set("jagan", "f", gns.Mapping{Mode: gns.ModeRemote, RemoteHost: "brecca" + ftpPort, RemotePath: "f"})
	e.store.Set("jagan", "g", gns.Mapping{Mode: gns.ModeCopy, RemoteHost: "brecca" + ftpPort, RemotePath: "g"})
	e.v.Run(func() {
		// No services started at all: every remote binding must error.
		fm := e.fm(t, "jagan", nil)
		if _, err := fm.Open("f"); err == nil {
			t.Error("remote open against dead service succeeded")
		}
		if _, err := fm.Open("g"); err == nil {
			t.Error("staged open against dead service succeeded")
		}
	})
}

func TestOpenAgainstDeadBufferServiceFails(t *testing.T) {
	e := newEnv()
	m := gns.Mapping{Mode: gns.ModeBuffer, BufferHost: "vpac27" + bufPort, BufferKey: "k"}
	e.store.Set("jagan", "b", m)
	e.v.Run(func() {
		fm := e.fm(t, "jagan", nil)
		if _, err := fm.Create("b"); err == nil {
			t.Error("buffer create against dead service succeeded")
		}
		if _, err := fm.Open("b"); err == nil {
			t.Error("buffer open against dead service succeeded")
		}
	})
}

func TestBufferDroppedMidStreamSurfacesError(t *testing.T) {
	// The buffer service drops the buffer while the writer is mid-stream:
	// the writer's next operation (or Close) must report it.
	e := newEnv()
	mapping := gns.Mapping{Mode: gns.ModeBuffer, BufferHost: "brecca" + bufPort, BufferKey: "doomed"}
	e.store.Set("brecca", "b", mapping)
	e.v.Run(func() {
		// Start services and keep a handle on brecca's registry by using a
		// dedicated one.
		m := e.grid.Machine("brecca")
		lb, err := m.Listen(bufPort)
		if err != nil {
			t.Fatal(err)
		}
		reg := gridbuffer.NewRegistry(e.v, m.FS())
		e.v.Go("buf", func() { gridbuffer.NewServer(reg, e.v).Serve(lb) })

		fm := e.fm(t, "brecca", nil)
		w, err := fm.Create("b")
		if err != nil {
			t.Fatal(err)
		}
		w.Write(make([]byte, 64*1024))
		reg.Drop("doomed")
		var werr error
		for i := 0; i < 200 && werr == nil; i++ {
			_, werr = w.Write(make([]byte, 4096))
		}
		if werr == nil {
			werr = w.Close()
		}
		if werr == nil {
			t.Error("writer never noticed the dropped buffer")
		}
	})
}

func TestStageOutToDeadServiceFailsOnClose(t *testing.T) {
	e := newEnv()
	e.store.Set("jagan", "out", gns.Mapping{
		Mode: gns.ModeCopy, RemoteHost: "brecca" + ftpPort, RemotePath: "/r/out", LocalPath: "/l/out",
	})
	e.v.Run(func() {
		// No file service on brecca. Local writing works; the stage-out at
		// Close must fail loudly.
		fm := e.fm(t, "jagan", nil)
		w, err := fm.Create("out")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.Write([]byte("data")); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err == nil {
			t.Error("stage-out to dead service reported success")
		}
		// The local copy still exists (nothing was lost).
		if !vfs.Exists(e.grid.Machine("jagan").RawFS(), "/l/out") {
			t.Error("local staging copy missing")
		}
	})
}

func TestGNSResolverFailureSurfacesAtOpen(t *testing.T) {
	e := newEnv()
	e.v.Run(func() {
		m := e.grid.Machine("jagan")
		// A network GNS client pointed at a dead address.
		client := gns.NewClient(m, "gns:5000", e.v)
		fm, err := New(Config{Machine: "jagan", Clock: e.v, FS: m.FS(), Dialer: m, GNS: client})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fm.Open("anything"); err == nil {
			t.Error("open with unreachable GNS succeeded")
		}
	})
}

func TestFMThroughNetworkGNS(t *testing.T) {
	// The full paper deployment: the FM resolves through a *network* GNS
	// (cmd/gnsd's role), not an embedded store.
	e := newEnv()
	e.v.Run(func() {
		e.startServices(t)
		// GNS server on koume00.
		gnsMachine := e.grid.Machine("koume00")
		l, err := gnsMachine.Listen(":5000")
		if err != nil {
			t.Fatal(err)
		}
		e.v.Go("gnsd", func() { gns.NewServer(e.store, e.v).Serve(l) })

		m := e.grid.Machine("jagan")
		client := gns.NewClient(m, "koume00:5000", e.v)
		fm, err := New(Config{Machine: "jagan", Clock: e.v, FS: m.FS(), Dialer: m, GNS: client})
		if err != nil {
			t.Fatal(err)
		}

		// Reconfigure remotely: first local, then remote, same open path.
		if _, err := client.Set("jagan", "data", gns.Mapping{Mode: gns.ModeLocal, LocalPath: "/local/data"}); err != nil {
			t.Fatal(err)
		}
		vfs.WriteFile(m.RawFS(), "/local/data", []byte("local version"))
		f, err := fm.Open("data")
		if err != nil {
			t.Fatal(err)
		}
		got, _ := io.ReadAll(f)
		f.Close()
		if string(got) != "local version" {
			t.Errorf("local read = %q", got)
		}

		vfs.WriteFile(e.grid.Machine("brecca").RawFS(), "/remote/data", []byte("remote version"))
		if _, err := client.Set("jagan", "data", gns.Mapping{
			Mode: gns.ModeRemote, RemoteHost: "brecca" + ftpPort, RemotePath: "/remote/data",
		}); err != nil {
			t.Fatal(err)
		}
		f, err = fm.Open("data")
		if err != nil {
			t.Fatal(err)
		}
		got, _ = io.ReadAll(f)
		f.Close()
		if string(got) != "remote version" {
			t.Errorf("after remote remap = %q", got)
		}
	})
}

func TestWaitClosePollingPaysConfiguredCost(t *testing.T) {
	e := newEnv()
	e.store.Set("jagan", "slow", gns.Mapping{Mode: gns.ModeLocal, WaitClose: true})
	var costCalls int
	e.v.Run(func() {
		fm := e.fm(t, "jagan", func(c *Config) {
			c.PollInterval = time.Second
			c.Hooks.PollCost = func() { costCalls++ }
		})
		done := simclock.NewWaitGroup(e.v)
		done.Add(1)
		e.v.Go("reader", func() {
			defer done.Done()
			f, err := fm.Open("slow")
			if err != nil {
				t.Errorf("open: %v", err)
				return
			}
			f.Close()
		})
		e.v.Sleep(10*time.Second + time.Millisecond)
		w, _ := fm.Create("slow")
		w.Close()
		done.Wait()
		if costCalls < 9 || costCalls > 12 {
			t.Errorf("poll cost charged %d times, want ~10", costCalls)
		}
	})
}

func TestDoubleCloseIsIdempotent(t *testing.T) {
	e := newEnv()
	e.v.Run(func() {
		e.startServices(t)
		fm := e.fm(t, "jagan", nil)
		w, _ := fm.Create("f")
		w.Write([]byte("x"))
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Errorf("second close: %v", err)
		}
	})
}

func TestOpenFileModesRespectFlags(t *testing.T) {
	e := newEnv()
	e.v.Run(func() {
		fm := e.fm(t, "jagan", nil)
		vfs.WriteFile(e.grid.Machine("jagan").RawFS(), "ro", []byte("x"))
		f, err := fm.OpenFile("ro", os.O_RDONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if _, err := f.Write([]byte("y")); err == nil {
			t.Error("write through O_RDONLY handle succeeded")
		}
		// Appending through the FM.
		a, err := fm.OpenFile("ro", os.O_WRONLY|os.O_APPEND, 0)
		if err != nil {
			t.Fatal(err)
		}
		a.Write([]byte("y"))
		a.Close()
		got, _ := vfs.ReadFile(e.grid.Machine("jagan").RawFS(), "ro")
		if string(got) != "xy" {
			t.Errorf("after append: %q", got)
		}
	})
}
