// Climate: the paper's atmospheric-sciences case study (§5.3) and the
// Table 5 crossover.
//
// C-CAM and cc2lam run in Australia (brecca) while DARLAM runs either
// nearby (dione, Melbourne) or across the world (bouscat, Cardiff). For
// each placement we couple the models two ways — sequential with a staged
// file copy, and streaming Grid Buffers — and print who wins. On the
// low-latency link buffers win through pipeline overlap; on the
// high-latency link the per-block Web-Services transport is so latency
// bound that running sequentially and copying the file is faster, exactly
// the paper's finding.
//
// Run: go run ./examples/climate
package main

import (
	"fmt"
	"log"
	"strings"

	"griddles/internal/climate"
	"griddles/internal/core"
	"griddles/internal/gns"
	"griddles/internal/simclock"
	"griddles/internal/testbed"
	"griddles/internal/workflow"
)

func main() {
	params := climate.DefaultParams()
	// Quarter scale keeps this example fast; the shape survives.
	params.Steps /= 4
	params.Work.CCAM /= 4
	params.Work.CC2LAM /= 4
	params.Work.DARLAM /= 4
	params.ReRead = 4

	for _, dst := range []string{"dione", "bouscat"} {
		assign := climate.Split("brecca", dst)
		fmt.Printf("C-CAM+cc2lam on brecca (AU), DARLAM on %s (%s)\n",
			dst, country(dst))
		var totals []string
		var winner string
		best := int64(1) << 62
		for _, coupling := range []workflow.Coupling{workflow.CouplingSequential, workflow.CouplingBuffers} {
			clock := simclock.NewVirtualDefault()
			grid := testbed.DefaultGrid(clock)
			runner := &workflow.Runner{
				Grid: grid, GNS: gns.NewStore(clock),
				FM: core.Paper2004(), CacheFiles: climate.CacheFiles(),
			}
			var rep *workflow.Report
			clock.Run(func() {
				stop, err := workflow.StartServices(clock, grid)
				if err != nil {
					log.Fatal(err)
				}
				defer stop()
				rep, err = runner.Run(climate.WorkflowSpec(params, assign), coupling)
				if err != nil {
					log.Fatal(err)
				}
			})
			totals = append(totals, fmt.Sprintf("%s %s", coupling, workflow.FormatDuration(rep.Total)))
			if int64(rep.Total) < best {
				best = int64(rep.Total)
				winner = coupling.String()
			}
			// Show DARLAM really ran: last diagnostics line.
			diag, err := climate.ReadDiagnostics(grid.Machine(dst).RawFS())
			if err != nil {
				log.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(diag), "\n")
			fmt.Printf("  [%s] darlam: %s\n", coupling, lines[len(lines)-1])
		}
		fmt.Printf("  totals: %s -> %s wins\n\n", strings.Join(totals, ", "), winner)
	}
}

func country(machine string) string {
	spec, _ := testbed.SpecByName(machine)
	return spec.Country
}
