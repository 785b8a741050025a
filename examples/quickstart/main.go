// Quickstart: the paper's headline property in ~100 lines.
//
// A producer and a consumer exchange "data.out". The component code below
// does plain open/write/read/close through the File Multiplexer — it knows
// nothing about grids. We run the identical code twice on a simulated
// two-machine grid: once coupled by a staged file copy, once by a direct
// Grid Buffer stream. Only GNS entries change between runs (the workflow
// Runner writes them), and the buffer run overlaps the two components.
//
// Run: go run ./examples/quickstart
//
// Pass -trace FILE to stream the run's JSONL event log (OBSERVABILITY.md)
// to FILE; tracing also runs a third phase demonstrating the §3.1 ModeAuto
// heuristic, whose decision record — file size, read fraction, NWS
// forecasts and the chosen mode — lands in the trace.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"griddles/internal/core"
	"griddles/internal/gns"
	"griddles/internal/nws"
	"griddles/internal/obs"
	"griddles/internal/simclock"
	"griddles/internal/testbed"
	"griddles/internal/vfs"
	"griddles/internal/workflow"
)

func main() {
	trace := flag.String("trace", "", "stream the JSONL event log to this file")
	flag.Parse()
	var sink io.Writer
	if *trace != "" {
		tf, err := os.Create(*trace)
		if err != nil {
			log.Fatal(err)
		}
		defer tf.Close()
		sink = tf
	}
	spec := &workflow.Spec{
		Name: "quickstart",
		Components: []workflow.Component{
			{
				Name: "producer", Machine: "brecca",
				Outputs: []string{"data.out"},
				Run: func(ctx *workflow.Ctx) error {
					w, err := ctx.FM.Create("data.out")
					if err != nil {
						return err
					}
					for step := 0; step < 60; step++ {
						ctx.Compute(1)                                            // one second of model time
						if _, err := w.Write(make([]byte, 256<<10)); err != nil { // 256 KiB per step
							return err
						}
					}
					return w.Close()
				},
			},
			{
				Name: "consumer", Machine: "vpac27",
				Inputs: []string{"data.out"},
				Run: func(ctx *workflow.Ctx) error {
					r, err := ctx.FM.Open("data.out")
					if err != nil {
						return err
					}
					defer r.Close()
					buf := make([]byte, 256<<10)
					for {
						n, err := io.ReadFull(r, buf)
						if n > 0 {
							ctx.Compute(0.3) // cheap post-processing per step
						}
						if err == io.EOF || err == io.ErrUnexpectedEOF {
							return nil
						}
						if err != nil {
							return err
						}
					}
				},
			},
		},
	}

	for _, coupling := range []workflow.Coupling{workflow.CouplingSequential, workflow.CouplingBuffers} {
		clock := simclock.NewVirtualDefault()
		grid := testbed.DefaultGrid(clock)
		runner := &workflow.Runner{Grid: grid, GNS: gns.NewStore(clock)}
		if sink != nil {
			// Each phase has its own virtual clock, so each gets its own
			// Observer; all stream to the one trace file.
			runner.Obs = obs.NewWith(clock, obs.Config{Sink: sink})
		}
		var rep *workflow.Report
		clock.Run(func() {
			stop, err := workflow.StartServices(clock, grid)
			if err != nil {
				log.Fatal(err)
			}
			defer stop()
			rep, err = runner.Run(spec, coupling)
			if err != nil {
				log.Fatal(err)
			}
		})
		fmt.Print(rep)
		fmt.Println()
	}
	fmt.Println("Same component code both times; only the GNS entries differed.")
	if sink != nil {
		autoDemo(sink)
		fmt.Printf("Trace written to %s.\n", *trace)
	}
}

// autoDemo exercises the §3.1 ModeAuto heuristic so the trace contains a
// decision record with its inputs: a consumer on vpac27 opens a file that
// lives on brecca under a ModeAuto mapping, and the FM weighs staging the
// whole file against remote block access using NWS forecasts for the link.
func autoDemo(sink io.Writer) {
	clock := simclock.NewVirtualDefault()
	grid := testbed.DefaultGrid(clock)
	observer := obs.NewWith(clock, obs.Config{Sink: sink})
	store := gns.NewStore(clock)
	store.SetObserver(observer)
	weather := nws.NewService()
	weather.SetObserver(observer)

	var fm *core.Multiplexer
	clock.Run(func() {
		stop, err := workflow.StartServices(clock, grid)
		if err != nil {
			log.Fatal(err)
		}
		defer stop()
		// The dataset lives on brecca; the consumer will read ~90% of it.
		if err := vfs.WriteFile(grid.Machine("brecca").RawFS(), "data.auto", make([]byte, 2<<20)); err != nil {
			log.Fatal(err)
		}
		store.Set("vpac27", "data.auto", gns.Mapping{
			Mode:         gns.ModeAuto,
			RemoteHost:   "brecca" + workflow.FileServicePort,
			RemotePath:   "data.auto",
			ReadFraction: 0.9,
		})
		// Feed the NWS a few probes of the brecca->vpac27 link so the
		// heuristic decides from forecasts, not defaults.
		for i := 0; i < 5; i++ {
			weather.Record("brecca", "vpac27", nws.MetricLatency, clock.Now(), 0.05)
			weather.Record("brecca", "vpac27", nws.MetricBandwidth, clock.Now(), 1e6)
		}
		machine := grid.Machine("vpac27")
		fm, err = core.New(core.Config{
			Machine: "vpac27",
			Clock:   clock,
			FS:      machine.FS(),
			Dialer:  machine,
			GNS:     store,
			NWS:     weather,
			Obs:     observer,
		})
		if err != nil {
			log.Fatal(err)
		}
		defer fm.Close()
		f, err := fm.Open("data.auto")
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		if _, err := io.Copy(io.Discard, f); err != nil {
			log.Fatal(err)
		}
	})
	for _, d := range fm.Stats().Decisions() {
		fmt.Printf("ModeAuto chose %s for %s (%s): size=%d readFraction=%.2f copyCost=%s readCost=%s\n",
			d.Mode, d.Path, d.Reason, d.Size, d.ReadFraction, d.CopyCost, d.ReadCost)
	}
}
