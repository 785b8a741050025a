// Command nwsd runs the Network Weather Service sensor over real TCP: the
// probe responder an nws.Prober measures a link against, one per machine.
// The forecaster that ranks replicas runs inside each File Multiplexer.
package main

import (
	"flag"

	"griddles/internal/daemon"
	"griddles/internal/nws"
	"griddles/internal/simclock"
)

func main() {
	d := daemon.Register(flag.CommandLine, daemon.Spec{Name: "nwsd", Listen: ":8200"})
	flag.Parse()
	d.Serve(nws.NewSensor(simclock.Real{}).Serve)
}
