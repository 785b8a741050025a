package chaos

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"time"

	"griddles/internal/admit"
	"griddles/internal/gns"
	"griddles/internal/gridbuffer"
	"griddles/internal/gridftp"
	"griddles/internal/retry"
	"griddles/internal/simclock"
	"griddles/internal/vfs"
	"griddles/internal/workflow"
)

// Overload scenarios for the admission controller: unlike the fault matrix
// (which injects failures), these saturate a healthy service and assert
// the two load-shedding guarantees — a shed client that retries still gets
// byte-identical data, and control RPCs complete while bulk transfers hold
// the service at its limit. Both run on the virtual testbed, so the
// saturation schedule is simulated-clock-driven like every other scenario.

// TestShedThenRetryBufferByteIdentical saturates a single-stream buffer
// service, verifies the surplus attach is shed with a retry hint, and then
// checks the client that rides the shed out through its retry policy
// writes and reads back the exact payload.
func TestShedThenRetryBufferByteIdentical(t *testing.T) {
	e := NewEnv()
	want := Payload(41, 96<<10)
	var got []byte
	run(t, e, func() {
		m := e.Grid.Machine(DataHost)
		ln, err := m.Listen(workflow.BufferServicePort)
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		defer ln.Close()
		reg := gridbuffer.NewRegistry(e.V, m.FS())
		srv := gridbuffer.NewServer(reg, e.V)
		srv.SetAdmission(admit.New(admit.Options{
			Service: "buf", MaxConcurrent: 1, ControlShare: -1,
			Clock: e.V, Obs: e.Obs,
		}))
		e.V.Go("buf-server", func() { srv.Serve(ln) })

		app := e.Grid.Machine(AppHost)
		addr := DataHost + workflow.BufferServicePort

		// An occupant stream holds the only slot.
		occ, err := gridbuffer.NewWriter(app, addr, e.V, "occupant",
			gridbuffer.Options{}, gridbuffer.WriterOptions{})
		if err != nil {
			t.Fatalf("occupant attach: %v", err)
		}

		// A fail-fast attach against the saturated service is shed with a
		// usable retry hint.
		_, err = gridbuffer.NewWriter(app, addr, e.V, "chaos-buf",
			gridbuffer.Options{}, gridbuffer.WriterOptions{})
		var shed *admit.ShedError
		if !errors.As(err, &shed) {
			t.Fatalf("saturated attach: want ShedError, got %v", err)
		}
		if shed.RetryAfter() <= 0 {
			t.Fatalf("shed carries no retry hint: %+v", shed)
		}

		// The occupant leaves mid-retry; the patient writer must get in.
		e.V.Go("occupant-close", func() {
			e.V.Sleep(250 * time.Millisecond)
			if cerr := occ.Close(); cerr != nil {
				t.Errorf("occupant close: %v", cerr)
			}
		})
		w, err := gridbuffer.NewWriter(app, addr, e.V, "chaos-buf",
			gridbuffer.Options{}, gridbuffer.WriterOptions{Retry: policyWith(e.V)})
		if err != nil {
			t.Fatalf("attach through shed: %v", err)
		}
		if _, err := w.Write(want); err != nil {
			t.Fatalf("write: %v", err)
		}
		if err := w.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}

		// The writer's slot is free again; the reader drains the buffer.
		r, err := gridbuffer.NewReader(app, addr, e.V, "chaos-buf",
			gridbuffer.Options{}, gridbuffer.ReaderOptions{Retry: policyWith(e.V)})
		if err != nil {
			t.Fatalf("reader attach: %v", err)
		}
		got, err = io.ReadAll(r)
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		if err := r.Close(); err != nil {
			t.Fatalf("reader close: %v", err)
		}
	})
	if !bytes.Equal(got, want) {
		t.Fatalf("shed-then-retry output differs: got %d bytes, want %d", len(got), len(want))
	}
	if sheds := e.Obs.Registry().SumPrefix("admit.shed.total"); sheds == 0 {
		t.Fatalf("scenario never shed — saturation did not happen")
	}
}

// TestGNSResolveCompletesUnderBulkSaturation shares one admission
// controller between a GNS server and a GridFTP server on DataHost — the
// per-node deployment shape — fills every bulk slot and the queue with
// long fetches, and asserts the control plane stays live: a GNS resolve
// and a GridFTP stat both complete promptly on the reserved control share
// while the bulk backlog drains.
func TestGNSResolveCompletesUnderBulkSaturation(t *testing.T) {
	e := NewEnv()
	const gnsPort = ":5000"
	blob := Payload(42, 512<<10)
	run(t, e, func() {
		m := e.Grid.Machine(DataHost)
		if err := vfs.WriteFile(m.RawFS(), "/data/big", blob); err != nil {
			t.Fatalf("seed: %v", err)
		}
		e.Store.Set(AppHost, File, gns.Mapping{
			Mode: gns.ModeRemote, RemoteHost: DataHost + workflow.FileServicePort, RemotePath: "/data/big",
		})

		// One controller governs both services on the node: 4 slots, one
		// reserved for control, bulk overflow queues rather than sheds.
		ctl := admit.New(admit.Options{
			Service:       "node",
			MaxConcurrent: 4,
			ControlShare:  0.25,
			QueueDepth:    16,
			MaxQueueWait:  time.Minute,
			Clock:         e.V,
			Obs:           e.Obs,
		})
		lf, err := m.Listen(workflow.FileServicePort)
		if err != nil {
			t.Fatalf("ftp listen: %v", err)
		}
		defer lf.Close()
		ftpSrv := gridftp.NewServer(m.FS(), e.V)
		ftpSrv.SetAdmission(ctl)
		e.V.Go("ftp-server", func() { ftpSrv.Serve(lf) })
		lg, err := m.Listen(gnsPort)
		if err != nil {
			t.Fatalf("gns listen: %v", err)
		}
		defer lg.Close()
		gnsSrv := gns.NewServer(e.Store, e.V)
		gnsSrv.SetAdmission(ctl)
		e.V.Go("gns-server", func() { gnsSrv.Serve(lg) })

		// Eight bulk fetches from the app host: three run (bulk cap with
		// one slot reserved for control), the rest queue behind them.
		app := e.Grid.Machine(AppHost)
		wg := simclock.NewWaitGroup(e.V)
		for i := 0; i < 8; i++ {
			wg.Add(1)
			e.V.Go("bulk-fetch", func() {
				defer wg.Done()
				c := gridftp.NewClient(app, DataHost+workflow.FileServicePort, e.V)
				c.SetRetry(policyWith(e.V))
				defer c.Close()
				n, ferr := c.Fetch("/data/big", 0, -1, io.Discard)
				if ferr != nil {
					t.Errorf("bulk fetch: %v", ferr)
				} else if n != int64(len(blob)) {
					t.Errorf("bulk fetch short: %d of %d", n, len(blob))
				}
			})
		}

		// Give the bulk wave time to occupy every slot, then exercise the
		// control plane. Each fetch needs seconds on the shared 460 KB/s
		// link, so the service is saturated for the whole window.
		e.V.Sleep(200 * time.Millisecond)
		start := e.V.Now()
		nc := gns.NewClient(app, DataHost+gnsPort, e.V)
		nc.SetRetry(policyWith(e.V))
		defer nc.Close()
		mp, rerr := nc.Resolve(AppHost, File)
		if rerr != nil {
			t.Fatalf("resolve under saturation: %v", rerr)
		}
		if mp.RemotePath != "/data/big" {
			t.Fatalf("resolve returned wrong mapping: %+v", mp)
		}
		fc := gridftp.NewClient(app, DataHost+workflow.FileServicePort, e.V)
		fc.SetRetry(policyWith(e.V))
		defer fc.Close()
		size, exists, serr := fc.Stat("/data/big")
		if serr != nil || !exists || size != int64(len(blob)) {
			t.Fatalf("stat under saturation: size=%d exists=%v err=%v", size, exists, serr)
		}
		if lat := e.V.Now().Sub(start); lat > time.Second {
			t.Fatalf("control plane starved behind bulk: resolve+stat took %v", lat)
		}
		wg.Wait()
	})
	if q := e.Obs.Registry().SumPrefix("admit.queued.total"); q == 0 {
		t.Fatalf("no bulk request ever queued — the service was not saturated")
	}
	if sheds := e.Obs.Registry().SumPrefix("admit.shed.total"); sheds != 0 {
		t.Fatalf("queued bulk load should not shed, got %d sheds", sheds)
	}
}

// policyWith is the chaos-matrix policy with the clock attached (the FM
// driver fills it in via core.Config; these scenarios build clients
// directly).
func policyWith(clock simclock.Clock) (p retry.Policy) {
	p = Policy()
	p.Clock = clock
	return p
}
