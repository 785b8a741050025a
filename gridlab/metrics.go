package main

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"` // samples behind it
}

// groupMedian reports the typical value of samples that come from several
// populations: the median of each group, averaged in proportion to the
// groups' sizes. A workload's ops are a mix of mechanisms whose latencies
// differ by multiples; the plain median of such a mix sits on the boundary
// between two mechanisms and jumps from one to the other with the mix,
// while this moves only when some mechanism's own median does. With one
// group it is the plain median.
func groupMedian(groups map[uint16][]float64) (v float64, n int) {
	for _, g := range groups {
		n += len(g)
	}
	for _, g := range groups {
		v += median(g) * float64(len(g)) / float64(n)
	}
	return v, n
}

// groupOf keys an op's latency population: its kind and mechanism.
func groupOf(op opRec) uint16 { return uint16(op.kind)<<8 | uint16(op.scheme) }

// work sums what the run completed between its two resource snapshots,
// crediting an op that straddles one in proportion to the overlap.
func (r *runResult) work(ivs []interval) float64 {
	span := r.to.at - r.from.at
	return windowRates(ivs, r.from.at, span, 1)[0] * span.Seconds()
}

// endToEnd computes the untraced run's metrics — what a user of the grid
// would see. Throughputs are the median over the measured windows; CPU is
// everything the client process and all daemons burned between the two
// snapshots, per unit of the work that fell between them.
func endToEnd(r *runResult, setups []float64) map[string]metric {
	var bytesIv, opsIv []interval
	lat := map[uint16][]float64{}
	for _, op := range r.ops {
		if op.err != nil || op.kind == opVerify {
			continue
		}
		bytesIv = append(bytesIv, interval{op.start, op.end, float64(op.bytes)})
		opsIv = append(opsIv, interval{op.start, op.end, 1})
		if r.measured(op) {
			lat[groupOf(op)] = append(lat[groupOf(op)], ms(op.end-op.start))
		}
	}
	n, width := r.windows()
	cpu := r.to.clientCPU - r.from.clientCPU
	for s := range r.to.daemonCPU {
		cpu += r.to.daemonCPU[s] - r.from.daemonCPU[s]
	}
	p50, samples := groupMedian(lat)
	return map[string]metric{
		"setup_s":       {Value: median(setups), Unit: "s", N: len(setups)},
		"goodput_mbps":  {Value: median(windowRates(bytesIv, r.warm, width, n)) / 1e6, Unit: "MB/s", N: n},
		"ops_per_s":     {Value: median(windowRates(opsIv, r.warm, width, n)), Unit: "1/s", N: n},
		"op_p50_ms":     {Value: p50, Unit: "ms", N: samples},
		"cpu_s_per_gb":  {Value: ratio(cpu.Seconds(), r.work(bytesIv)/1e9), Unit: "s/GB"},
		"cpu_ms_per_op": {Value: ratio(ms(cpu), r.work(opsIv)), Unit: "ms"},
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// tally counts the measured ops and the failed ones among them. A run the
// watchdog had to abort has failed whatever its ops say.
func (r *runResult) tally() (attempted, failed int) {
	for _, op := range r.ops {
		if !r.measured(op) {
			continue
		}
		attempted++
		if op.err != nil {
			failed++
		}
	}
	if r.timedOut && failed == 0 {
		failed = 1
	}
	return max(attempted, 1), failed
}
