// Durability: the paper's mechanical-engineering case study (§5.2).
//
// The five-program pipeline of Figure 5 — CHAMMY, PAFEC, MAKE_SF_FILES,
// FAST, OBJECTIVE — computes the fatigue life of a plate with a hole. We
// run the paper's three Table 2 experiments at 1/4 scale: all-on-jagan with
// sequential files, all-on-jagan with Grid Buffers, and distributed across
// four countries with Grid Buffers. The physical answer (RESULT.DAT) is
// identical in all three; only the wall time changes.
//
// Run: go run ./examples/durability
package main

import (
	"fmt"
	"log"

	"griddles/internal/core"
	"griddles/internal/gns"
	"griddles/internal/mech"
	"griddles/internal/simclock"
	"griddles/internal/testbed"
	"griddles/internal/vfs"
	"griddles/internal/workflow"
)

func main() {
	params := mech.DefaultParams()
	// Quarter scale keeps this example under ~20 seconds of wall time.
	params.FieldRows /= 4
	params.BoundaryN /= 4
	params.GrowthSites /= 4
	params.Work = mech.Works{Chammy: 2.5, Pafec: 70, MakeSF: 5, Fast: 39, Objective: 2.5}

	cases := []struct {
		name     string
		assign   mech.Assignment
		coupling workflow.Coupling
	}{
		{"exp 1: all on jagan, sequential files", mech.AllOn("jagan"), workflow.CouplingSequential},
		{"exp 2: all on jagan, grid buffers", mech.AllOn("jagan"), workflow.CouplingBuffers},
		{"exp 3: distributed, grid buffers", mech.Experiment3(), workflow.CouplingBuffers},
	}
	var lives []mech.Result
	for _, c := range cases {
		clock := simclock.NewVirtualDefault()
		grid := testbed.DefaultGrid(clock)
		runner := &workflow.Runner{
			Grid: grid, GNS: gns.NewStore(clock),
			FM: core.Paper2004(), BlockSize: 64 * 1024,
		}
		if err := mech.Setup(func(m string) vfs.FS { return grid.Machine(m).RawFS() }, c.assign, params); err != nil {
			log.Fatal(err)
		}
		var rep *workflow.Report
		clock.Run(func() {
			stop, err := workflow.StartServices(clock, grid)
			if err != nil {
				log.Fatal(err)
			}
			defer stop()
			rep, err = runner.Run(mech.PipelineSpec(params, c.assign), c.coupling)
			if err != nil {
				log.Fatal(err)
			}
		})
		res, err := mech.ReadResult(grid.Machine(c.assign.Objective).RawFS())
		if err != nil {
			log.Fatal(err)
		}
		lives = append(lives, res)
		fmt.Printf("%s\n", c.name)
		fmt.Print(rep)
		fmt.Printf("  RESULT.DAT: life %.4g cycles at boundary site %d/%d\n\n", res.Life, res.Site, res.Sites)
	}
	for _, r := range lives[1:] {
		if r != lives[0] {
			log.Fatal("couplings changed the physical result — that must never happen")
		}
	}
	fmt.Println("All three experiments computed the identical RESULT.DAT.")
}
