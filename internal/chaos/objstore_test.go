package chaos

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"griddles/internal/fault"
	"griddles/internal/gns"
	"griddles/internal/workflow"
)

// The PR 6 object-store chaos cases. Mechanism 7 also rides the full
// {mechanism} x {scenario} matrix (matrix_test.go); these two cases pin its
// sharpest claims — a ranged GET that loses its server mid-stream resumes
// without duplicating or dropping a byte, and an atomic PUT replayed through
// a blackhole commits exactly the written body.

// TestChaosObjstoreServerResetMidGet resets the object server's data
// direction halfway through the payload: the client's resumable GET must
// retry from the bytes already delivered and the consumer must read the
// object byte-identical.
func TestChaosObjstoreServerResetMidGet(t *testing.T) {
	e := NewEnv()
	want := Payload(5, dataSize)
	e.ObjStore(DataHost).PutBytes("chaos/f", want)
	e.Store.Set(AppHost, File, gns.Mapping{
		Mode: gns.ModeObject, RemoteHost: DataHost + workflow.ObjectStoreServicePort, RemotePath: "chaos/f",
	})
	var got []byte
	var rerr error
	run(t, e, func() {
		stop, err := e.StartServices(AppHost, DataHost)
		if err != nil {
			t.Fatal(err)
		}
		defer stop()
		defer (&fault.Schedule{Clock: e.V, Net: e.Grid.Network(), Obs: e.Obs, Actions: []fault.Action{
			{Kind: fault.FailAfter, From: DataHost, To: AppHost, Bytes: dataSize / 2},
		}}).Start().Wait()
		got, rerr = RunConsumer(e, AppHost, Policy())
	})
	if rerr != nil {
		t.Fatalf("consumer: %v", rerr)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("object bytes differ after mid-GET reset (%d vs %d bytes)", len(got), len(want))
	}
	snap := e.Obs.Snapshot().Counters
	if snap["objstore.get.total"] == 0 {
		t.Fatal("no objstore GET recorded — the scenario tested nothing")
	}
	var trace bytes.Buffer
	if err := e.Obs.WriteJSONL(&trace); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(trace.String(), `"retry.attempt"`) {
		t.Error("trace shows no retry resuming the interrupted GET")
	}
}

// TestChaosObjstorePutBlackhole silences the writer's link while the
// producer's Close is streaming its atomic PUT. The retry policy must replay
// the upload; because the server commits only on a complete stream, the
// replay cannot double-commit — the object must read back byte-identical,
// exactly once.
func TestChaosObjstorePutBlackhole(t *testing.T) {
	e := NewEnv()
	want := Payload(6, dataSize)
	m := gns.Mapping{Mode: gns.ModeObject, RemoteHost: AppHost + workflow.ObjectStoreServicePort, RemotePath: "chaos/out"}
	e.Store.Set(DataHost, File, m)
	e.Store.Set(AppHost, File, m)
	var werr error
	var got []byte
	var rerr error
	run(t, e, func() {
		stop, err := e.StartServices(AppHost, DataHost)
		if err != nil {
			t.Fatal(err)
		}
		defer stop()
		// The blackhole opens 50 ms in — while the producer is mid-upload at
		// the monash<->vpac link rate — and swallows its frames for 1 s.
		defer (&fault.Schedule{Clock: e.V, Net: e.Grid.Network(), Obs: e.Obs, Actions: []fault.Action{
			{At: 50 * time.Millisecond, Kind: fault.Blackhole, From: DataHost, To: AppHost, Duration: time.Second},
		}}).Start().Wait()
		werr = RunProducer(e, DataHost, Policy(), want)
		got, rerr = RunConsumer(e, AppHost, Policy())
	})
	if werr != nil {
		t.Fatalf("producer: %v", werr)
	}
	if rerr != nil {
		t.Fatalf("consumer: %v", rerr)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("object bytes differ after blackholed PUT (%d vs %d bytes)", len(got), len(want))
	}
	// The committed object on the server is the complete body, not a
	// partial stream glued to a replay.
	if stored, ok := e.ObjStore(AppHost).Get("chaos/out"); !ok || !bytes.Equal(stored, want) {
		t.Fatalf("server-side object wrong (present=%v, %d bytes)", ok, len(stored))
	}
	var trace bytes.Buffer
	if err := e.Obs.WriteJSONL(&trace); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(trace.String(), `"retry.attempt"`) {
		t.Error("trace shows no retry replaying the blackholed PUT")
	}
}
