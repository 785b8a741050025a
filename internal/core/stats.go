package core

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"griddles/internal/gns"
	"griddles/internal/obs"
)

// nModes is the number of gns.Mode values (ModeLocal..ModeObject) the
// per-mode open counters cover.
const nModes = int(gns.ModeObject) + 1

// Stats accumulates per-FM counters; experiments and tests read them to
// verify which mechanisms a workflow actually exercised.
//
// Since the obs layer landed, Stats is a thin view over the Multiplexer's
// obs.Observer: every count lives in an obs counter (named per
// OBSERVABILITY.md, e.g. "fm.open.total{mode=copy}"), and the accessors
// below read those counters back. The accessor API and its values are
// unchanged from the bespoke implementation, so existing tests and
// experiment output are unaffected; the gain is that the same numbers are
// now visible in the shared metric snapshot and event trace of a run.
type Stats struct {
	o       *obs.Observer
	machine string

	opens        [nModes]*obs.Counter
	bytesRead    *obs.Counter
	bytesWritten *obs.Counter
	polls        *obs.Counter
	stageIn      *obs.Counter
	stageOut     *obs.Counter
	prestageB    *obs.Counter
	prestageN    *obs.Counter
	remaps       *obs.Counter
	failovers    *obs.Counter
	translations *obs.Counter

	mu           sync.Mutex
	decisions    []Decision
	replicaHosts map[string]int
}

// init caches the counter pointers Stats increments on hot paths. o must be
// non-nil (the Multiplexer creates a private Observer when the Config
// carries none). When several FMs share one Observer (a traced workflow
// run), the machine label keeps FMs on different machines separable;
// same-machine FMs aggregate, which is the per-machine view a shared
// registry is for.
func (s *Stats) init(o *obs.Observer, machine string) {
	s.o = o
	s.machine = machine
	name := func(base string) string {
		if machine == "" {
			return base
		}
		return obs.Key(base, "machine", machine)
	}
	for m := 0; m < nModes; m++ {
		mode := gns.Mode(m).String()
		if machine == "" {
			s.opens[m] = o.Counter(obs.Key("fm.open.total", "mode", mode))
		} else {
			s.opens[m] = o.Counter(obs.Key("fm.open.total", "machine", machine, "mode", mode))
		}
	}
	s.bytesRead = o.Counter(name("fm.read.bytes"))
	s.bytesWritten = o.Counter(name("fm.write.bytes"))
	s.polls = o.Counter(name("fm.poll.total"))
	s.stageIn = o.Counter(name("fm.stagein.bytes"))
	s.stageOut = o.Counter(name("fm.stageout.bytes"))
	s.prestageB = o.Counter(name("fm.prestage.bytes"))
	s.prestageN = o.Counter(name("fm.prestage.adopt.total"))
	s.remaps = o.Counter(name("fm.remap.total"))
	s.failovers = o.Counter(name("fm.failover.total"))
	s.translations = o.Counter(name("fm.translate.total"))
}

func (s *Stats) opened(mode gns.Mode) {
	if int(mode) < nModes {
		s.opens[mode].Inc()
	}
}

func (s *Stats) read(n int)        { s.bytesRead.Add(int64(n)) }
func (s *Stats) wrote(n int)       { s.bytesWritten.Add(int64(n)) }
func (s *Stats) polled()           { s.polls.Inc() }
func (s *Stats) stagedIn(n int64)  { s.stageIn.Add(n) }
func (s *Stats) stagedOut(n int64) { s.stageOut.Add(n) }

// prestaged records the adoption of an eager stage-in copy (the bytes are
// additionally counted as staged-in, since they did cross the network).
func (s *Stats) prestaged(n int64) {
	s.prestageN.Inc()
	s.prestageB.Add(n)
}

func (s *Stats) remapped() { s.remaps.Inc() }

func (s *Stats) failedOver() { s.failovers.Inc() }

// decided records a ModeAuto choice: the ordered in-memory list the
// Decisions accessor serves, a per-mode counter, and a decision-record
// event carrying the §3.1 heuristic inputs.
func (s *Stats) decided(d Decision) {
	s.mu.Lock()
	s.decisions = append(s.decisions, d)
	s.mu.Unlock()
	s.o.Counter(obs.Key("fm.decision.total", "mode", d.Mode.String())).Inc()
	attrs := []obs.Attr{
		obs.KV("path", d.Path),
		obs.KV("mode", d.Mode.String()),
		obs.KV("reason", d.Reason),
		obs.KV("size", d.Size),
		obs.KV("read_fraction", d.ReadFraction),
		obs.KV("copy_cost_ms", d.CopyCost),
		obs.KV("read_cost_ms", d.ReadCost),
	}
	if d.ForecastKnown {
		attrs = append(attrs,
			obs.KV("nws_latency_s", d.LatencySec),
			obs.KV("nws_bandwidth_bps", d.BandwidthBps))
	}
	s.o.Emit("fm.decision", s.machine, attrs...)
}

// Decisions reports the ModeAuto choices made so far, in order.
func (s *Stats) Decisions() []Decision {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Decision, len(s.decisions))
	copy(out, s.decisions)
	return out
}

func (s *Stats) translated() { s.translations.Inc() }

// Translations reports how many opens were bound through the byte-order
// translator.
func (s *Stats) Translations() int64 { return s.translations.Value() }

func (s *Stats) replicaChosen(host string) {
	s.mu.Lock()
	if s.replicaHosts == nil {
		s.replicaHosts = make(map[string]int)
	}
	s.replicaHosts[host]++
	s.mu.Unlock()
	s.o.Counter(obs.Key("fm.replica.chosen", "host", host)).Inc()
}

// Opens reports how many files were opened under each mode.
func (s *Stats) Opens(mode gns.Mode) int {
	if int(mode) >= nModes {
		return 0
	}
	return int(s.opens[mode].Value())
}

// BytesRead reports total bytes delivered to the application.
func (s *Stats) BytesRead() int64 { return s.bytesRead.Value() }

// BytesWritten reports total bytes accepted from the application.
func (s *Stats) BytesWritten() int64 { return s.bytesWritten.Value() }

// Polls reports WaitClose poll iterations.
func (s *Stats) Polls() int64 { return s.polls.Value() }

// StagedIn reports stage-in (copy) traffic in bytes.
func (s *Stats) StagedIn() int64 { return s.stageIn.Value() }

// Remaps reports mid-read replica re-bindings.
func (s *Stats) Remaps() int64 { return s.remaps.Value() }

// Failovers reports error-driven replica re-bindings.
func (s *Stats) Failovers() int64 { return s.failovers.Value() }

// ReplicaChoices reports how often each replica host was selected.
func (s *Stats) ReplicaChoices() map[string]int {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]int, len(s.replicaHosts))
	for k, v := range s.replicaHosts {
		out[k] = v
	}
	return out
}

// String implements fmt.Stringer with a compact single-line summary.
func (s *Stats) String() string {
	var modes []string
	for m := 0; m < nModes; m++ {
		if n := s.opens[m].Value(); n > 0 {
			modes = append(modes, fmt.Sprintf("%s=%d", gns.Mode(m), n))
		}
	}
	sort.Strings(modes)
	return fmt.Sprintf("opens{%s} read=%d written=%d polls=%d stagedIn=%d stagedOut=%d remaps=%d",
		strings.Join(modes, " "), s.bytesRead.Value(), s.bytesWritten.Value(), s.polls.Value(),
		s.stageIn.Value(), s.stageOut.Value(), s.remaps.Value())
}
