package main

import (
	"griddles/internal/gns"
)

// Workload names, in the order a full set runs them.
var workloadNames = []string{"pipe_stream", "file_read", "file_write", "open_storm", "sim_grid"}

// metricDef declares one metric: what BENCHMARK.json says about it, plus —
// for a per-layer metric — the prediction written down before measuring:
// which end-to-end metric it should move, and on which workload.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only
	Layer  string  `json:"layer,omitempty"`
	Moves  string  `json:"moves,omitempty"` // the end-to-end metric it should move
	On     string  `json:"on,omitempty"`    // the workload it should move it on
}

// endToEndDefs are the bounded metrics. Every workload reports every one,
// so each is defined for all five (README.md says how for sim_grid).
var endToEndDefs = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "goodput_mbps", Unit: "MB/s", Better: "higher", Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "op_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "cpu_s_per_gb", Unit: "s/GB", Better: "lower", Bound: 0.25},
	{Name: "cpu_ms_per_op", Unit: "ms", Better: "lower", Bound: 0.25},
}

// schemes are the FM mechanisms the workloads bind files to, in mechanism
// order; their names are the per-mechanism metric infixes.
var schemes = []gns.Mode{gns.ModeLocal, gns.ModeCopy, gns.ModeRemote, gns.ModeReplicaRemote, gns.ModeReplicaCopy, gns.ModeBuffer, gns.ModeObject}

// perLayerDefs builds the per-layer catalogue. Layers are this repository's
// packages and daemons.
func perLayerDefs() []metricDef {
	var d []metricDef
	add := func(layer, moves, on string, defs ...metricDef) {
		for _, m := range defs {
			m.Layer, m.Moves, m.On = layer, moves, on
			d = append(d, m)
		}
	}
	lo := func(name, unit string) metricDef { return metricDef{Name: name, Unit: unit, Better: "lower"} }
	hi := func(name, unit string) metricDef { return metricDef{Name: name, Unit: unit, Better: "higher"} }

	add("core", "op_p50_ms, ops_per_s", "open_storm",
		lo("core.open_self_ms_p50", "ms"), lo("core.close_self_ms_p50", "ms"))
	add("core", "goodput_mbps", "file_read", lo("core.io_self_us_per_mb", "us/MB"))
	for _, s := range schemes {
		add("core", "op_p50_ms", "the workloads that bind files to "+s.String(),
			lo("core."+s.String()+".ttfb_p50_ms", "ms"),
			lo("core."+s.String()+".op_p50_ms", "ms"),
			hi("core."+s.String()+".mbps", "MB/s"))
	}
	add("gns", "op_p50_ms, ops_per_s, cpu_ms_per_op", "open_storm",
		lo("gns.resolve_ms_p50", "ms"), lo("gns.resolve_ms_p99", "ms"),
		lo("gns.resolves_per_op", "count"), lo("gns.frames_per_resolve", "count"),
		lo("gns.set_ms_p50", "ms"), lo("gns.loopback_resolve_us", "us"),
		lo("gnsd.cpu_ms_per_op", "ms"), lo("gnsd.rss_peak_mb", "MB"))
	seam := func(svc string) []metricDef {
		return []metricDef{
			lo(svc+".dials_per_op", "count"), lo(svc+".conn_writes_per_mb", "1/MB"),
			lo(svc+".conn_wait_ms_per_mb", "ms/MB"), lo(svc+".wire_overhead", "ratio"),
			lo(svc+"d.cpu_s_per_gb", "s/GB"), lo(svc+"d.rss_peak_mb", "MB"),
		}
	}
	add("gridbuffer", "goodput_mbps, cpu_s_per_gb", "pipe_stream", seam("gridbuffer")...)
	add("gridbuffer", "goodput_mbps, cpu_s_per_gb", "pipe_stream",
		hi("gridbuffer.loopback_stream_mbps", "MB/s"), lo("gridbuffer.registry_ns_per_block", "ns"),
		hi("gridbuffer.cache_on_mbps", "MB/s"))
	add("gridftp", "goodput_mbps, cpu_s_per_gb", "file_read, file_write", seam("gridftp")...)
	add("gridftp", "goodput_mbps, cpu_s_per_gb", "file_read, file_write",
		hi("gridftp.loopback_read_mbps", "MB/s"), hi("gridftp.loopback_write_4k_mbps", "MB/s"),
		hi("gridftp.loopback_copyin_mbps", "MB/s"))
	add("objstore", "goodput_mbps, cpu_s_per_gb", "file_read, file_write", seam("objstore")...)
	add("objstore", "goodput_mbps, cpu_s_per_gb", "file_read, file_write",
		hi("objstore.loopback_get_mbps", "MB/s"), hi("objstore.loopback_put_mbps", "MB/s"))
	add("wire", "goodput_mbps", "pipe_stream",
		lo("wire.frame_4k_ns", "ns"), lo("wire.frame_64k_ns", "ns"), lo("wire.frame_allocs", "count"),
		hi("wire.lzb_encode_mbps", "MB/s"), hi("wire.lzb_decode_mbps", "MB/s"))
	add("xdr", "none today", "none: no workload declares a foreign DataOrder",
		hi("xdr.translate_mbps", "MB/s"), hi("xdr.columnar_mbps", "MB/s"))
	add("vfs", "goodput_mbps, op_p50_ms", "file_read, file_write",
		lo("vfs.ms_per_mb", "ms/MB"), lo("vfs.calls_per_op", "count"))
	add("client", "cpu_s_per_gb, cpu_ms_per_op", "every network workload",
		lo("client.cpu_s_per_gb", "s/GB"), lo("client.cpu_ms_per_op", "ms"),
		lo("client.allocs_per_op", "count"), lo("client.alloc_bytes_per_payload_byte", "ratio"),
		lo("client.gc_pause_ms", "ms"), lo("client.rss_peak_mb", "MB"))
	add("simclock, simnet, workflow", "op_p50_ms, ops_per_s", "sim_grid",
		lo("simclock.sleep_wake_ns", "ns"), hi("simnet.wall_mbps", "MB/s"),
		hi("sim.virt_s_per_wall_s", "ratio"), lo("sim.alloc_gb", "GB"), lo("sim.allocs_per_virt_s", "1/s"),
		lo("workflow.table4_wall_s", "s"), lo("workflow.table5_wall_s", "s"))
	// What the application sees beyond the bounded set: not every workload
	// has these (a sim row has no first byte), and a tail is withheld where
	// the sample is too small, so they cannot carry a bound.
	add("application", "op_p50_ms", "every network workload",
		lo("app.ttfb_p50_ms", "ms"), lo("app.ttfb_p95_ms", "ms"), lo("app.op_p95_ms", "ms"),
		lo("app.close_p50_ms", "ms"), lo("app.close_p95_ms", "ms"))
	add("tracer", "none", "all", lo("trace_overhead_pct", "%"))
	return d
}
