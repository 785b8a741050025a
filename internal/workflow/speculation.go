package workflow

import (
	"sort"
	"time"

	"griddles/internal/gns"
	"griddles/internal/obs"
)

// Stage-level speculative re-execution, in the MapReduce backup-task
// style: when a running stage has been in flight for longer than a
// percentile-based straggler threshold and an idle machine exists, the
// scheduler launches a second attempt of the same component there. The
// two attempts race; the first to finish commits its outputs through a
// first-writer-wins GNS claim (gns.Store.SetIfAbsent) and the loser is
// interrupted at its next IO and its partial outputs discarded.
//
// The scheme assumes what MapReduce assumes: stage bodies are
// deterministic functions of their inputs, so either attempt's outputs
// are byte-identical and committing whichever lands first is safe.
//
// Everything a speculative attempt touches on its host machine lives
// under the ".wfspec" suffix — staged input copies and outputs alike — so
// the attempt can never collide with plain-named files already on that
// machine (eagerly staged inputs for other stages, a consumer's own
// working files), and discarding a loser is a plain unlink.

// specInterval, specFactor, specMinSamples apply the Runner's defaults.
func (r *Runner) specInterval() time.Duration {
	if r.SpecInterval > 0 {
		return r.SpecInterval
	}
	return 5 * time.Second
}

func (r *Runner) specMinSamples() int {
	if r.SpecMinSamples > 0 {
		return r.SpecMinSamples
	}
	return 3
}

// monitor is the speculation scan loop, one goroutine per DAG run. It
// wakes every SpecInterval (or on any scheduler broadcast) and launches a
// speculative attempt for each straggling primary with an idle machine
// available. It exits when the dispatcher loop finishes.
func (d *dagRun) monitor() {
	r := d.runner
	interval := r.specInterval()
	d.mu.Lock()
	defer d.mu.Unlock()
	for !d.finished {
		d.cond.WaitTimeout(interval)
		if d.finished {
			return
		}
		if d.failed || d.kill.Killed() {
			continue // nothing new is launched; wait for the loop to drain
		}
		threshold, ok := d.thresholdLocked()
		if !ok {
			continue
		}
		now := d.clock.Now()
		for i, st := range d.state {
			if st != stRunning || d.attempts[i] != 1 {
				continue
			}
			if now.Sub(d.startAt[i]) < threshold {
				continue
			}
			m := d.idleMachineLocked(i)
			if m == "" {
				continue
			}
			d.speculateLocked(i, m)
			if d.kill.Killed() {
				break // the speculation-launch kill point fired
			}
		}
	}
}

// specFactor scales the straggler threshold: a stage is a straggler once
// its runtime exceeds specFactor × the p75 of completed stage durations.
const specFactor = 1.5

// thresholdLocked computes the straggler threshold: specFactor × the p75
// of completed stage durations, once SpecMinSamples stages have finished.
func (d *dagRun) thresholdLocked() (time.Duration, bool) {
	r := d.runner
	if len(d.durations) < r.specMinSamples() {
		return 0, false
	}
	sorted := append([]time.Duration(nil), d.durations...)
	sort.Slice(sorted, func(a, b int) bool { return sorted[a] < sorted[b] })
	p75 := sorted[(len(sorted)*3)/4]
	return time.Duration(float64(p75) * specFactor), true
}

// idleMachineLocked picks the machine for a speculative attempt of stage
// i: not the stage's own machine, nothing currently running on it, fastest
// SpeedFactor first with the name as a deterministic tie-break. Empty
// string means no machine is idle.
func (d *dagRun) idleMachineLocked(i int) string {
	comp := d.spec.Components[i]
	best := ""
	bestSpeed := 0.0
	for name, m := range d.runner.Grid.Machines() {
		if name == comp.Machine || d.running[name] > 0 {
			continue
		}
		speed := m.Spec().SpeedFactor
		if best == "" || speed > bestSpeed || (speed == bestSpeed && name < best) {
			best, bestSpeed = name, speed
		}
	}
	return best
}

// speculateLocked launches attempt 2 of stage i on machine m: pre-stages
// the attempt's GNS view (inputs from each producer's home machine,
// outputs local under the spec namespace), saving every entry it
// overwrites for rollback, then starts the goroutine.
func (d *dagRun) speculateLocked(i int, m string) {
	comp := d.spec.Components[i]
	r := d.runner
	att := &attempt{stage: i, n: 2, machine: m}
	d.presetLocked(att)
	d.attempts[i] = 2
	d.specAtt[i] = att
	d.running[m]++
	r.Obs.Counter("wf.spec.launch.total").Inc()
	r.Obs.Gauge("wf.sched.running").Set(int64(d.inflightLocked()))
	r.Obs.Emit("wf.spec.launch", m,
		obs.KV("workflow", d.spec.Name),
		obs.KV("component", comp.Name),
		obs.KV("primary", comp.Machine),
		obs.KV("running_for_ms", d.clock.Now().Sub(d.startAt[i])/time.Millisecond))
	d.journal.Spec(SpecLaunch, i, 2, m) // the speculation kill point fires in here
	d.launchLocked(att, "wf-spec-"+comp.Name)
}

// presetLocked writes the GNS entries a speculative attempt on att.machine
// needs, remembering what it overwrites in att.saved:
//
//   - each input is staged from its producer's home machine (or from the
//     component's configured machine for workflow sources), landing under
//     the spec namespace; an input whose authoritative copy already lives
//     on att.machine is read in place;
//   - each output is written locally under the spec namespace, so a losing
//     attempt's partials never shadow the primary's files.
func (d *dagRun) presetLocked(att *attempt) {
	comp := d.spec.Components[att.stage]
	r := d.runner
	set := func(path string, m gns.Mapping) {
		prev, had := r.GNS.Lookup(att.machine, path)
		att.saved = append(att.saved, savedEntry{machine: att.machine, path: path, mapping: prev, had: had})
		r.GNS.Set(att.machine, path, m)
	}
	for _, f := range comp.Inputs {
		src := comp.Machine // workflow sources are pre-placed on the stage's machine
		srcPath := f
		if p, ok := d.prod[f]; ok && p != att.stage {
			src = d.home[p]
			// A producer whose speculation won on a foreign machine keeps
			// its output under the spec namespace there.
			srcPath = attemptPath(f, attemptOn(d, p, src))
		}
		if src == att.machine {
			set(f, gns.Mapping{Mode: gns.ModeLocal, LocalPath: srcPath})
		} else {
			set(f, gns.Mapping{
				Mode:       gns.ModeCopy,
				RemoteHost: src + FileServicePort,
				RemotePath: srcPath,
				LocalPath:  f + specSuffix,
			})
		}
	}
	for _, f := range comp.Outputs {
		if d.prod[f] != att.stage {
			continue
		}
		set(f, gns.Mapping{Mode: gns.ModeLocal, LocalPath: f + specSuffix})
	}
}

// attemptOn reports which attempt number produced stage p's outputs on
// machine m: 2 when the outputs live on a speculation winner's machine
// (the spec namespace), 1 on the component's own machine (plain names).
func attemptOn(d *dagRun, p int, m string) int {
	if m != d.spec.Components[p].Machine {
		return 2
	}
	return 1
}
