package chaos

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"griddles/internal/fault"
	"griddles/internal/gns"
	"griddles/internal/vfs"
	"griddles/internal/workflow"
)

// The data-path chaos cases: the striped stage-in and the coalescing remote
// write path each lose their link mid-flight and must deliver byte-identical
// data anyway.

// stripeSize is comfortably above the striping threshold (512 KiB), so the
// replica-copy stage-in runs the multi-source striped path.
const stripeSize = 768_000

// TestChaosReplicaDiesMidStripe partitions the preferred replica away while
// a striped stage-in is pulling ranges from it. The dead source's unfinished
// ranges must be reassigned to the surviving replica and the staged file must
// be byte-identical.
func TestChaosReplicaDiesMidStripe(t *testing.T) {
	e := NewEnv()
	want := Payload(2, stripeSize)
	prepareReplicas(e, want)
	e.Store.Set(AppHost, File, gns.Mapping{
		Mode: gns.ModeReplicaCopy, LogicalName: "chaos-ds", LocalPath: "/stage/f",
	})
	var got []byte
	var rerr error
	run(t, e, func() {
		stop, err := e.StartServices(AppHost, DataHost, AltHost)
		if err != nil {
			t.Fatal(err)
		}
		defer stop()
		// Permanent partition 200 ms in: the copy is mid-stripe and DataHost
		// never comes back, so recovery must be reassignment, not retry.
		defer (&fault.Schedule{Clock: e.V, Net: e.Grid.Network(), Obs: e.Obs, Actions: []fault.Action{
			{At: 200 * time.Millisecond, Kind: fault.Partition, From: AppHost, To: DataHost},
		}}).Start().Wait()
		got, rerr = RunConsumer(e, AppHost, Policy())
	})
	if rerr != nil {
		t.Fatalf("consumer: %v", rerr)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("staged bytes differ after mid-stripe replica death (%d vs %d bytes)", len(got), len(want))
	}
	snap := e.Obs.Snapshot().Counters
	if snap["ftp.stripe.plan.total"] == 0 {
		t.Fatal("stage-in never striped — the scenario tested nothing")
	}
	if snap["ftp.stripe.requeue.total"] == 0 {
		t.Error("no stripe range was requeued off the dead replica")
	}
	var trace bytes.Buffer
	if err := e.Obs.WriteJSONL(&trace); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(trace.String(), `"fm.failover"`) {
		t.Error("trace has no fm.failover record for the dead stripe source")
	}
}

// TestChaosBlackholeDuringWriteBehindFlush silences the writer's link while
// a mechanism-3 writer is sending its dirty runs. The retry policy must ride
// out the blackhole (the run is kept until acknowledged, so it is replayed),
// Close must not report success until every byte is on the server, and the
// remote file must be byte-identical to the written stream.
func TestChaosBlackholeDuringWriteBehindFlush(t *testing.T) {
	e := NewEnv()
	want := Payload(3, dataSize)
	e.Store.Set(AppHost, File, gns.Mapping{
		Mode: gns.ModeRemote, RemoteHost: DataHost + workflow.FileServicePort, RemotePath: "/data/wb",
	})
	var werr error
	run(t, e, func() {
		stop, err := e.StartServices(AppHost, DataHost, AltHost)
		if err != nil {
			t.Fatal(err)
		}
		defer stop()
		defer (&fault.Schedule{Clock: e.V, Net: e.Grid.Network(), Obs: e.Obs, Actions: []fault.Action{
			{At: 100 * time.Millisecond, Kind: fault.Blackhole, From: AppHost, To: DataHost, Duration: time.Second},
		}}).Start().Wait()
		werr = func() error {
			fm, err := e.FM(AppHost, Policy())
			if err != nil {
				return err
			}
			w, err := fm.Create(File)
			if err != nil {
				return err
			}
			for off := 0; off < len(want); off += 4096 {
				end := off + 4096
				if end > len(want) {
					end = len(want)
				}
				if _, err := w.Write(want[off:end]); err != nil {
					w.Close()
					return err
				}
			}
			return w.Close()
		}()
	})
	if werr != nil {
		t.Fatalf("writer: %v", werr)
	}
	got, err := vfs.ReadFile(e.Grid.Machine(DataHost).RawFS(), "/data/wb")
	if err != nil {
		t.Fatalf("reading remote result: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("remote bytes differ after blackholed flush (%d vs %d bytes)", len(got), len(want))
	}
	snap := e.Obs.Snapshot().Counters
	// One acknowledged flush per 64 KiB run, however often each was resent.
	if flushes, runs := snap["ftp.write.flush.total"], int64((dataSize+(64<<10)-1)/(64<<10)); flushes != runs {
		t.Fatalf("%d run flushes for %d bytes, want %d — the writes did not take the coalescing path", flushes, dataSize, runs)
	}
	var trace bytes.Buffer
	if err := e.Obs.WriteJSONL(&trace); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(trace.String(), `"retry.attempt"`) {
		t.Error("trace shows no retry activity riding out the blackhole")
	}
}
