// Command nwsd runs the Network Weather Service over real TCP: a central
// forecaster that sensors report observations into and replica selectors
// query. It can also run an active monitor against a list of sensor
// addresses.
package main

import (
	"flag"
	"log"
	"strings"
	"time"

	"griddles/internal/daemon"
	"griddles/internal/nws"
	"griddles/internal/rpc"
	"griddles/internal/simclock"
)

func main() {
	d := daemon.Register(flag.CommandLine, daemon.Spec{Name: "nwsd", Listen: ":8200", ListenUsage: "forecast service listen address"})
	sensor := flag.String("sensor", "", "also run a probe responder on this address (optional)")
	probe := flag.String("probe", "", "comma-separated src=dst=host:port links to monitor (optional)")
	interval := flag.Duration("interval", 30*time.Second, "probe interval")
	flag.Parse()

	clock := simclock.Real{}
	svc := nws.NewService()
	svc.SetObserver(d.Obs)

	if *sensor != "" {
		l := d.Listen(*sensor)
		log.Printf("nwsd: sensor on %s", l.Addr())
		go nws.NewSensor(clock).Serve(l)
	}

	if *probe != "" {
		var targets []nws.Target
		for _, spec := range strings.Split(*probe, ",") {
			parts := strings.SplitN(spec, "=", 3)
			if len(parts) != 3 {
				log.Fatalf("nwsd: bad -probe entry %q (want src=dst=host:port)", spec)
			}
			targets = append(targets, nws.Target{
				Src: parts[0], Dst: parts[1], Addr: parts[2], Dialer: rpc.TCPDialer{},
			})
		}
		mon := nws.NewMonitor(clock, svc, *interval, targets)
		stop := simclock.NewEvent(clock)
		log.Printf("nwsd: monitoring %d links every %v", len(targets), *interval)
		go mon.Run(stop)
	}

	d.Serve(nws.NewServer(svc, clock).Serve)
}
