// Package daemon is the process shell of the cmd/*d services: the shared
// flags, the codec list, admission, the listener and one live observer per
// process, whose metric snapshot and trace ring it logs on SIGINT or SIGTERM.
package daemon

import (
	"flag"
	"io"
	"log"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"griddles/internal/admit"
	"griddles/internal/obs"
	"griddles/internal/rpc"
	"griddles/internal/simclock"
	"griddles/internal/wire"
)

// Admission says which -admit-* flags a daemon takes.
type Admission int

const (
	NoAdmission Admission = iota
	PerStream             // -admit-limit, -admit-queue: a slot lives as long as its stream, so no AIMD target
	PerRequest            // -admit-limit, -admit-target, -admit-queue
)

// Spec names a daemon and the shared flags it takes.
type Spec struct {
	Name      string // log prefix and admission service label
	Listen    string // -listen default
	Admission Admission
	Codecs    bool // takes -codecs
}

// Daemon is one service process.
type Daemon struct {
	Obs *obs.Observer // every server, store and controller of the process records here

	name, listen, codecs string
	limit, queue         int
	target               time.Duration
}

// Register declares spec's shared flags on fs (flag.CommandLine in a main).
func Register(fs *flag.FlagSet, spec Spec) *Daemon {
	d := &Daemon{Obs: obs.New(simclock.Real{}), name: spec.Name}
	fs.StringVar(&d.listen, "listen", spec.Listen, "TCP listen address")
	switch spec.Admission {
	case PerStream:
		fs.IntVar(&d.limit, "admit-limit", 0, "admission stream limit (0 = admission off); slots are per attached stream")
	case PerRequest:
		fs.IntVar(&d.limit, "admit-limit", 0, "admission concurrency limit (0 = admission off)")
		fs.DurationVar(&d.target, "admit-target", 0, "admission AIMD latency target (0 = static limit)")
	}
	if spec.Admission != NoAdmission {
		fs.IntVar(&d.queue, "admit-queue", 0, "admission queue depth per priority class")
	}
	if spec.Codecs {
		fs.StringVar(&d.codecs, "codecs", "", "comma-separated stream codecs this server will negotiate (e.g. raw,lzb; empty = all supported)")
	}
	return d
}

// Codecs reports the codecs -codecs restricts the server to; nil accepts
// everything the build supports. An unknown codec ends the process.
func (d *Daemon) Codecs() []string {
	accept, err := wire.ParseCodecList(d.codecs)
	d.Must(err)
	return accept
}

// Admission builds the controller the -admit-* flags describe, recording
// into Obs; nil when -admit-limit is 0 (admission off, the default).
func (d *Daemon) Admission() *admit.Controller {
	if d.limit <= 0 {
		return nil
	}
	return admit.New(admit.Options{Service: d.name, MaxConcurrent: d.limit, TargetLatency: d.target,
		QueueDepth: d.queue, Clock: simclock.Real{}, Obs: d.Obs})
}

// Listen opens a TCP listener on addr; failing to ends the process.
func (d *Daemon) Listen(addr string) net.Listener {
	l, err := net.Listen("tcp", addr)
	d.Must(err)
	return l
}

// Must ends the process, naming the daemon, when err is not nil.
func (d *Daemon) Must(err error) {
	if err != nil {
		log.Fatalf("%s: %v", d.name, err)
	}
}

// Serve runs serve on -listen until SIGINT or SIGTERM arrives or serve
// returns, then logs the metric snapshot taken as the listener closed (before
// a service's stop drops state that carries metrics, such as a Grid
// Buffer's key= metrics) and the trace ring (JSONL). On a signal it closes
// the listener and waits for serve to return. The signals are caught from
// 100 ms on: os/signal's first use starts an OS thread, which would compete
// with every daemon starting beside this one.
func (d *Daemon) Serve(serve func(net.Listener)) {
	stop := make(chan os.Signal, 1)
	time.AfterFunc(100*time.Millisecond, func() {
		signal.Notify(stop, syscall.SIGINT, syscall.SIGTERM)
		log.Printf("%s: SIGINT or SIGTERM now reports and exits 0", d.name)
	})
	d.run(d.Listen(d.listen), serve, stop, log.Writer())
}

func (d *Daemon) run(l net.Listener, serve func(net.Listener), stop <-chan os.Signal, w io.Writer) {
	log.Printf("%s: serving on %s", d.name, l.Addr())
	go func() {
		<-stop
		l.Close()
	}()
	var snap obs.Snapshot
	serve(rpc.OnClose(l, func() { snap = d.Obs.Snapshot() }))
	log.Printf("%s: stopping; metrics, then the last of %d trace events", d.name, d.Obs.Trace().Total())
	if s := snap.String(); s != "" {
		io.WriteString(w, s+"\n")
	}
	d.Obs.WriteJSONL(w)
}
