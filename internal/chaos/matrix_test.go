package chaos

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"testing"
	"time"

	"griddles/internal/core"
	"griddles/internal/fault"
	"griddles/internal/simclock"
)

// dataSize is the matrix workload: large enough that every fault scenario
// lands mid-stream at the testbed's link rates.
const dataSize = 96_000

// scenario is the fault axis of the matrix. Actions may depend on the
// mechanism: partitions heal for the single-endpoint mechanisms but stay up
// for the replicated ones, where the whole point is failing over to the
// surviving copy.
type scenario struct {
	name    string
	actions func(m Mechanism) []fault.Action
	// expectRecovery asserts that the trace shows the resilience layer at
	// work (retry.attempt or fm.failover) for mechanisms with a network path.
	expectRecovery bool
}

var scenarios = []scenario{
	{
		// The data stream's connection is reset halfway through the payload.
		name: "midstream-reset",
		actions: func(Mechanism) []fault.Action {
			return []fault.Action{{Kind: fault.FailAfter, From: DataHost, To: AppHost, Bytes: dataSize / 2}}
		},
		expectRecovery: true,
	},
	{
		// The data direction goes silent for 1s — within the 2s attempt
		// timeout, so recovery is driven purely by deadlines.
		name: "blackhole-timeout",
		actions: func(Mechanism) []fault.Action {
			return []fault.Action{{Kind: fault.Blackhole, From: DataHost, To: AppHost, Duration: time.Second}}
		},
		expectRecovery: true,
	},
	{
		// Both directions die mid-transfer. Single-endpoint mechanisms ride
		// it out across the 1.2s heal on retry backoff; replicated ones face
		// a permanent cut and must fail over to the copy on AltHost.
		name: "partition-then-heal",
		actions: func(m Mechanism) []fault.Action {
			a := fault.Action{At: 50 * time.Millisecond, Kind: fault.Partition, From: AppHost, To: DataHost}
			if m.ID != 4 && m.ID != 5 {
				a.Duration = 1200 * time.Millisecond
			}
			return []fault.Action{a}
		},
		expectRecovery: true,
	},
	{
		// No failures, just a degraded route: 100ms of extra latency for 2s.
		// The transfer must complete identically with no retry needed.
		name: "slow-link",
		actions: func(Mechanism) []fault.Action {
			return []fault.Action{{Kind: fault.Latency, From: DataHost, To: AppHost, Extra: 100 * time.Millisecond, Duration: 2 * time.Second}}
		},
	},
}

// run runs root as e.V's root and fails t if the run left anything behind:
// a goroutine registered on the clock, a buffer in a Grid Buffer registry
// StartServices made, or a metric labelled with a buffer key.
func run(t *testing.T, e *Env, root func()) {
	t.Helper()
	e.V.Run(root)
	var left []string
	if n := e.V.Live(); n > 0 {
		left = append(left, fmt.Sprintf("%d live goroutines", n))
	}
	for _, reg := range e.regs {
		if n := reg.Len(); n > 0 {
			left = append(left, fmt.Sprintf("%d Grid Buffer buffers", n))
		}
	}
	for _, line := range strings.Split(e.Obs.Snapshot().String(), "\n") {
		if name, _, _ := strings.Cut(line, " "); strings.Contains(name, "key=") {
			left = append(left, "metric "+name)
		}
	}
	if len(left) > 0 {
		t.Fatalf("the run left %s", strings.Join(left, ", "))
	}
}

// runCell executes one (mechanism, schedule) cell in a fresh world and
// returns the bytes the consumer read plus the run's JSONL event trace.
func runCell(t *testing.T, mech Mechanism, actions []fault.Action) ([]byte, string) {
	got, trace, _ := runCellWith(t, mech, actions, nil)
	return got, trace
}

// runCellWith is runCell with a consumer-side Config mutation (the codec
// matrix turns on wire compression this way); it also returns the run's
// counters.
func runCellWith(t *testing.T, mech Mechanism, actions []fault.Action, mut func(*core.Config)) ([]byte, string, map[string]int64) {
	t.Helper()
	e := NewEnv()
	want := Payload(1, dataSize)
	mech.Prepare(e, want)
	p := Policy()
	var got []byte
	var rerr, perr error
	run(t, e, func() {
		stop, err := e.StartServices(AppHost, DataHost, AltHost)
		if err != nil {
			t.Fatal(err)
		}
		defer stop()
		if len(actions) > 0 {
			defer (&fault.Schedule{Clock: e.V, Net: e.Grid.Network(), Obs: e.Obs, Actions: actions}).Start().Wait()
		}
		wg := simclock.NewWaitGroup(e.V)
		if mech.Producer {
			wg.Add(1)
			e.V.Go("chaos-producer", func() {
				defer wg.Done()
				perr = RunProducer(e, DataHost, p, want)
			})
		}
		var fm *core.Multiplexer
		fm, rerr = e.FMWith(AppHost, p, mut)
		if rerr == nil {
			var f core.File
			f, rerr = fm.Open(File)
			if rerr == nil {
				got, rerr = io.ReadAll(f)
				f.Close()
			}
		}
		wg.Wait()
	})
	if perr != nil {
		t.Fatalf("producer: %v", perr)
	}
	if rerr != nil {
		t.Fatalf("consumer: %v", rerr)
	}
	var trace bytes.Buffer
	if err := e.Obs.WriteJSONL(&trace); err != nil {
		t.Fatalf("writing trace: %v", err)
	}
	return got, trace.String(), e.Obs.Snapshot().Counters
}

// TestChaosMatrix is the full {mechanism 1..7} x {fault scenario} grid: every
// cell must deliver output byte-identical to the mechanism's no-fault run,
// and recoverable cells must show the resilience layer in the event trace.
func TestChaosMatrix(t *testing.T) {
	for _, mech := range Mechanisms {
		t.Run(fmt.Sprintf("mech%d-%s", mech.ID, mech.Name), func(t *testing.T) {
			baseline, _, counters := runCellWith(t, mech, nil, nil)
			if want := Payload(1, dataSize); !bytes.Equal(baseline, want) {
				t.Fatalf("no-fault run broken: got %d bytes, want %d", len(baseline), len(want))
			}
			// Mechanism 7 keeps its connection between exchanges: undisturbed,
			// the OPEN's Stat and every ranged GET share the one it dialed.
			const objDials = "objstore.conn.dial.total"
			if mech.ID == 7 && counters[objDials] != 1 {
				t.Errorf("no-fault run: %s = %d, want 1", objDials, counters[objDials])
			}
			for _, sc := range scenarios {
				t.Run(sc.name, func(t *testing.T) {
					got, trace, counters := runCellWith(t, mech, sc.actions(mech), nil)
					// A connection a fault touched is never kept: recovery
					// dials, and a merely slow link costs no dial at all.
					if dials := counters[objDials]; mech.ID == 7 && (dials > 1) != sc.expectRecovery {
						t.Errorf("%s = %d with expectRecovery = %v", objDials, dials, sc.expectRecovery)
					}
					if !bytes.Equal(got, baseline) {
						t.Fatalf("output under faults differs from no-fault run: got %d bytes, want %d",
							len(got), len(baseline))
					}
					if !strings.Contains(trace, "fault.injected") {
						t.Error("trace has no fault.injected event")
					}
					// Mechanism 1 never touches the network, so faults are
					// invisible to it — no recovery to assert.
					if sc.expectRecovery && mech.ID != 1 &&
						!strings.Contains(trace, "retry.attempt") && !strings.Contains(trace, "fm.failover") {
						t.Error("trace shows no retry.attempt or fm.failover despite injected faults")
					}
				})
			}
		})
	}
}

// TestChaosFailoverEvidence pins the replicated mechanisms' partition cells
// to the strongest claim: the read finished from the surviving replica and
// the decision is in the trace.
func TestChaosFailoverEvidence(t *testing.T) {
	for _, mech := range Mechanisms {
		if mech.ID != 4 && mech.ID != 5 {
			continue
		}
		t.Run(mech.Name, func(t *testing.T) {
			sc := scenarios[2] // partition-then-heal: permanent for these mechanisms
			_, trace := runCell(t, mech, sc.actions(mech))
			if !strings.Contains(trace, "fm.failover") {
				t.Error("no fm.failover event after losing the preferred replica")
			}
			if !strings.Contains(trace, AltHost) {
				t.Errorf("trace never mentions the surviving replica %s", AltHost)
			}
		})
	}
}
