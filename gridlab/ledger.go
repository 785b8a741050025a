package main

import (
	"fmt"
	"math"
	"sort"
	"syscall"
	"time"

	"griddles/internal/experiments"
	"griddles/internal/gns"
)

// Ledger layers: where an op's wall time can go. "app" is the harness's own
// share of an op (CRC, the read loop) — the op span's self time.
var ledgerLayers = []string{"app", "core", "gns", "gridftp", "gridbuffer", "objstore", "vfs"}

// svcOfScheme is the service that carries a mechanism's payload.
func svcOfScheme(s uint8) int {
	switch gns.Mode(s) {
	case gns.ModeCopy, gns.ModeRemote, gns.ModeReplicaRemote, gns.ModeReplicaCopy:
		return svcGridFTP
	case gns.ModeBuffer:
		return svcGridBuffer
	case gns.ModeObject:
		return svcObjStore
	}
	return svcNone
}

// layerOf maps a span to the ledger layer its self time is charged to.
func layerOf(s span) string {
	switch s.name {
	case spOp:
		return "app"
	case spCoreOpen, spCoreIO, spCoreClose:
		return "core"
	case spVFSCall:
		return "vfs"
	}
	if s.svc == svcNone {
		return "core" // a dial to an address no daemon of the grid owns
	}
	return svcNames[s.svc]
}

// ledger is the per-layer account of one traced run.
type ledger struct {
	OpTimeMS float64            `json:"op_time_ms"` // summed wall time of the traced ops
	SelfMS   map[string]float64 `json:"self_ms"`    // by layer; sums to OpTimeMS
	Share    map[string]float64 `json:"share"`      // SelfMS / OpTimeMS
	Metrics  map[string]float64 `json:"metrics"`
}

// svcTally is what the seams counted for one service over the traced ops.
type svcTally struct {
	ops, dials, writes int
	wireBytes, selfNS  int64
	payload            int64 // payload of the ops whose mechanism uses the service
}

// seamTotals is everything the spans of the traced ops add up to.
type seamTotals struct {
	ops, vfsCalls, resolves, gnsFrames int
	bytes, opNS, ioSelfNS, vfsSelfNS   int64
	svc                                [numSvc]svcTally
	layerNS                            map[string]int64
	openSelfMS, closeSelfMS, resolveMS []float64
}

// addOp charges one traced op: ss is the op's spans, root first.
func (t *seamTotals) addOp(ss []span, svc int) {
	self := selfTimes(ss)
	t.opNS += ss[0].dur()
	t.svc[svc].payload += int64(ss[0].bytes)
	var openNS, closeNS int64
	for i, s := range ss {
		t.layerNS[layerOf(s)] += self[i]
		switch s.name {
		case spCoreOpen:
			openNS += self[i]
		case spCoreClose:
			closeNS += self[i]
		case spCoreIO:
			t.ioSelfNS += self[i]
		case spGNSResolve:
			t.resolves++
			t.resolveMS = append(t.resolveMS, float64(s.dur())/1e6)
		case spVFSCall:
			t.vfsCalls++
			t.vfsSelfNS += self[i]
		case spDial:
			t.svc[s.svc].dials++
			t.svc[s.svc].selfNS += self[i]
		case spConnWait:
			t.svc[s.svc].selfNS += self[i]
			t.svc[s.svc].wireBytes += int64(s.bytes)
			if s.write {
				t.svc[s.svc].writes++
				if s.svc == svcGNS {
					t.gnsFrames++
				}
			}
		}
	}
	t.openSelfMS = append(t.openSelfMS, float64(openNS)/1e6)
	t.closeSelfMS = append(t.closeSelfMS, float64(closeNS)/1e6)
}

// rateSum is work per second of time spent inside ops.
type rateSum struct {
	n     int
	bytes int64
	busy  time.Duration
}

func (rs *rateSum) add(op opRec) {
	rs.n++
	rs.bytes += op.bytes
	rs.busy += op.end - op.start
}

func (rs *rateSum) mbps() float64 { return ratio(float64(rs.bytes)/1e6, rs.busy.Seconds()) }

// schemeStat collects the measured ops of one mechanism.
type schemeStat struct {
	rateSum
	ttfb, lat []float64
}

// traceOverhead compares the traced and the untraced ops of one run,
// mechanism by mechanism so the coin's uneven split of a mixed workload
// does not pass for overhead, weighted by the time each mechanism took.
func traceOverhead(traced, untraced map[uint8]*rateSum) (pct float64, ok bool) {
	var sum, weight float64
	for scheme, t := range traced {
		u := untraced[scheme]
		if t.n == 0 || u == nil || u.mbps() == 0 {
			continue
		}
		w := (t.busy + u.busy).Seconds()
		sum += w * (1 - t.mbps()/u.mbps())
		weight += w
	}
	if weight == 0 {
		return 0, false
	}
	return 100 * sum / weight, true
}

// buildLedger turns a traced run's ops and spans into the per-layer
// metrics. Seam-derived numbers come from the traced ops alone; the
// application-visible and resource-derived ones from every measured op.
func buildLedger(r *runResult, spans []span, g *grid) *ledger {
	l := &ledger{SelfMS: map[string]float64{}, Share: map[string]float64{}, Metrics: map[string]float64{}}
	m := l.Metrics

	byOp := make(map[uint32][]span)
	for _, s := range spans {
		if s.op != 0 {
			byOp[s.op] = append(byOp[s.op], s)
		}
	}
	seams := seamTotals{layerNS: map[string]int64{}}
	var bytesIv, opsIv []interval
	var ivBySvc [numSvc][]interval
	var ttfb, lat, closes, setMS []float64
	var virtS, simWallS float64 // sim_grid: virtual and wall seconds of the measured rows
	ttfbBy, latBy := map[uint16][]float64{}, map[uint16][]float64{}
	perScheme := map[uint8]*schemeStat{}
	tracedRate, untracedRate := map[uint8]*rateSum{}, map[uint8]*rateSum{}
	for _, op := range r.ops {
		if op.err != nil || op.kind == opVerify {
			continue
		}
		iv := interval{op.start, op.end, float64(op.bytes)}
		bytesIv = append(bytesIv, iv)
		opsIv = append(opsIv, interval{op.start, op.end, 1})
		svc := svcNone
		if op.scheme != noScheme {
			svc = svcOfScheme(op.scheme)
			ivBySvc[svc] = append(ivBySvc[svc], iv)
		}
		if !r.measured(op) {
			continue
		}
		d := ms(op.end - op.start)
		if op.kind == opSet {
			setMS = append(setMS, d)
			continue
		}
		lat = append(lat, d)
		latBy[groupOf(op)] = append(latBy[groupOf(op)], d)
		if op.kind == opSim {
			virtS += op.virtS
			simWallS += (op.end - op.start).Seconds()
		}
		if op.first > 0 {
			ttfb = append(ttfb, ms(op.first-op.start))
			ttfbBy[groupOf(op)] = append(ttfbBy[groupOf(op)], ms(op.first-op.start))
		}
		if op.closeDur > 0 {
			closes = append(closes, ms(op.closeDur))
		}
		if op.scheme == noScheme {
			continue
		}
		st := perScheme[op.scheme]
		if st == nil {
			st = &schemeStat{}
			perScheme[op.scheme] = st
			tracedRate[op.scheme], untracedRate[op.scheme] = &rateSum{}, &rateSum{}
		}
		st.add(op)
		st.lat = append(st.lat, d)
		if op.first > 0 {
			st.ttfb = append(st.ttfb, ms(op.first-op.start))
		}
		if !op.traced {
			untracedRate[op.scheme].add(op)
			continue
		}
		tracedRate[op.scheme].add(op)
		seams.ops++
		seams.bytes += op.bytes
		seams.svc[svc].ops++
		for _, id := range op.traceOps {
			if ss := byOp[id]; len(ss) > 0 && ss[0].name == spOp {
				seams.addOp(ss, svc)
			}
		}
	}
	measuredBytes, measuredOps := r.work(bytesIv), r.work(opsIv)

	// The ledger proper: self time by layer over the traced ops.
	l.OpTimeMS = float64(seams.opNS) / 1e6
	for _, name := range ledgerLayers {
		l.SelfMS[name] = float64(seams.layerNS[name]) / 1e6
		l.Share[name] = ratio(float64(seams.layerNS[name]), float64(seams.opNS))
	}

	tracedMB := float64(seams.bytes) / 1e6
	m["core.open_self_ms_p50"] = median(seams.openSelfMS)
	m["core.close_self_ms_p50"] = median(seams.closeSelfMS)
	m["core.io_self_us_per_mb"] = ratio(float64(seams.ioSelfNS)/1e3, tracedMB)
	for _, s := range schemes {
		if st := perScheme[uint8(s)]; st != nil {
			m["core."+s.String()+".ttfb_p50_ms"] = median(st.ttfb)
			m["core."+s.String()+".op_p50_ms"] = median(st.lat)
			m["core."+s.String()+".mbps"] = st.mbps()
		}
	}

	sort.Float64s(seams.resolveMS)
	if n := len(seams.resolveMS); n > 0 {
		m["gns.resolve_ms_p50"] = percentile(seams.resolveMS, 0.5)
		m["gns.resolve_ms_p99"] = 0 // withheld without ten samples beyond it
		if supported(n, 0.99) {
			m["gns.resolve_ms_p99"] = percentile(seams.resolveMS, 0.99)
		}
	}
	m["gns.resolves_per_op"] = ratio(float64(seams.resolves), float64(seams.ops))
	m["gns.frames_per_resolve"] = ratio(float64(seams.gnsFrames), float64(seams.resolves))
	m["gns.set_ms_p50"] = median(setMS)
	m["gnsd.cpu_ms_per_op"] = ratio(ms(r.to.daemonCPU[svcGNS]-r.from.daemonCPU[svcGNS]), measuredOps)
	for s := svcGridFTP; s < numSvc; s++ {
		name, t := svcNames[s], seams.svc[s]
		mb := float64(t.payload) / 1e6
		m[name+".dials_per_op"] = ratio(float64(t.dials), float64(t.ops))
		m[name+".conn_writes_per_mb"] = ratio(float64(t.writes), mb)
		m[name+".conn_wait_ms_per_mb"] = ratio(float64(t.selfNS)/1e6, mb)
		m[name+".wire_overhead"] = ratio(float64(t.wireBytes), float64(t.payload))
		cpu := r.to.daemonCPU[s] - r.from.daemonCPU[s]
		m[name+"d.cpu_s_per_gb"] = ratio(cpu.Seconds(), r.work(ivBySvc[s])/1e9)
	}
	if g != nil {
		for s := svcGNS; s < numSvc; s++ {
			m[svcNames[s]+"d.rss_peak_mb"] = float64(g.rssPeak[s]) / 1e6
		}
	}
	m["vfs.ms_per_mb"] = ratio(float64(seams.vfsSelfNS)/1e6, tracedMB)
	m["vfs.calls_per_op"] = ratio(float64(seams.vfsCalls), float64(seams.ops))

	clientCPU := r.to.clientCPU - r.from.clientCPU
	mallocs := float64(r.to.mem.Mallocs - r.from.mem.Mallocs)
	allocBytes := float64(r.to.mem.TotalAlloc - r.from.mem.TotalAlloc)
	m["client.cpu_s_per_gb"] = ratio(clientCPU.Seconds(), measuredBytes/1e9)
	m["client.cpu_ms_per_op"] = ratio(ms(clientCPU), measuredOps)
	m["client.allocs_per_op"] = ratio(mallocs, measuredOps)
	m["client.alloc_bytes_per_payload_byte"] = ratio(allocBytes, measuredBytes)
	m["client.gc_pause_ms"] = float64(r.to.mem.PauseTotalNs-r.from.mem.PauseTotalNs) / 1e6
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		m["client.rss_peak_mb"] = float64(ru.Maxrss) * 1024 / 1e6
	}
	if virtS > 0 {
		// Here the client process is the simulator: its cost is the kernel's.
		m["sim.virt_s_per_wall_s"] = ratio(virtS, simWallS)
		m["sim.alloc_gb"] = allocBytes / 1e9
		m["sim.allocs_per_virt_s"] = ratio(mallocs, virtS)
		m["workflow.table5_wall_s"] = median(lat) / 1e3 * float64(len(experiments.Table5Pairings))
	}

	m["app.ttfb_p50_ms"], _ = groupMedian(ttfbBy)
	m["app.ttfb_p95_ms"], _ = p95(ttfb)
	m["app.op_p95_ms"], _ = p95(lat)
	m["app.close_p50_ms"] = median(closes)
	m["app.close_p95_ms"], _ = p95(closes)
	if pct, ok := traceOverhead(tracedRate, untracedRate); ok {
		m["trace_overhead_pct"] = pct
	}
	return l
}

// checkSeparation tests the predictions the workloads were built on: that
// they separate the layers. It returns one PASS/FAIL line per prediction.
// The prediction about the GNS share depends on the bulk files dwarfing a
// resolve, so it is only made of full-size runs.
func checkSeparation(layers map[string]*ledger, fullSize bool) []string {
	var out []string
	verdict := func(ok bool, format string, args ...any) {
		tag := "PASS"
		if !ok {
			tag = "FAIL"
		}
		out = append(out, tag+"  "+fmt.Sprintf(format, args...))
	}
	for _, w := range workloadNames {
		l := layers[w]
		if l == nil {
			continue
		}
		if w != "pipe_stream" {
			n := l.Metrics["gridbuffer.dials_per_op"] + l.Metrics["gridbuffer.conn_writes_per_mb"] + l.SelfMS["gridbuffer"]
			verdict(n == 0, "%s: gridbuffer counts are 0 (sum %.3g)", w, n)
		}
		if w == "sim_grid" {
			verdict(l.Metrics["sim.virt_s_per_wall_s"] > 0, "sim_grid: the simulator kernel ran (%.0f virtual s per wall s)", l.Metrics["sim.virt_s_per_wall_s"])
			continue
		}
		verdict(l.Metrics["sim.virt_s_per_wall_s"] == 0, "%s: no simulator time", w)
		var sum float64
		for _, name := range ledgerLayers {
			sum += l.SelfMS[name]
		}
		verdict(math.Abs(sum-l.OpTimeMS) <= 1e-6*l.OpTimeMS, "%s: layer self-times sum to the op time (%.1f of %.1f ms)", w, sum, l.OpTimeMS)
		_, reported := l.Metrics["trace_overhead_pct"]
		verdict(reported, "%s: trace overhead reported (%.1f%%)", w, l.Metrics["trace_overhead_pct"])
	}
	if storm, read := layers["open_storm"], layers["file_read"]; fullSize && storm != nil && read != nil {
		a, b := storm.Share["gns"], read.Share["gns"]
		verdict(a >= 10*b, "gns share of op time: open_storm %.2f%% >= 10 x file_read %.3f%%", 100*a, 100*b)
	}
	for _, w := range []string{"file_read", "file_write"} {
		if l := layers[w]; l != nil {
			verdict(l.SelfMS["gridftp"] > 0 && l.SelfMS["objstore"] > 0, "%s: both gridftp (%.0f ms) and objstore (%.0f ms) carry time", w, l.SelfMS["gridftp"], l.SelfMS["objstore"])
		}
	}
	return out
}
