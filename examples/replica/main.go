// Replica: IO mechanisms 4/5 and the paper's dynamic re-binding (§3.1).
//
// A dataset is replicated on bouscat (UK) and koume00 (JP). A reader on
// brecca (AU) opens it through the File Multiplexer in replica-remote mode:
// the Network Weather Service is probing both links, and the FM picks the
// cheaper replica. Mid-read we degrade the chosen link; at the next remap
// interval the FM re-binds the open file to the other replica at the same
// offset, invisibly to the reader, and the bytes still come out right.
//
// Run: go run ./examples/replica
package main

import (
	"bytes"
	"fmt"
	"log"
	"time"

	"griddles/internal/core"
	"griddles/internal/gns"
	"griddles/internal/nws"
	"griddles/internal/replica"
	"griddles/internal/rpc"
	"griddles/internal/simclock"
	"griddles/internal/simnet"
	"griddles/internal/testbed"
	"griddles/internal/vfs"
	"griddles/internal/workflow"
)

func main() {
	clock := simclock.NewVirtualDefault()
	grid := testbed.DefaultGrid(clock)

	// The replicated dataset: identical copies in the UK and Japan.
	data := make([]byte, 4<<20)
	for i := range data {
		data[i] = byte(i * 31)
	}
	vfs.WriteFile(grid.Machine("bouscat").RawFS(), "/data/reanalysis", data)
	vfs.WriteFile(grid.Machine("koume00").RawFS(), "/data/reanalysis", data)

	cat := replica.NewCatalog()
	for _, host := range []string{"bouscat", "koume00"} {
		cat.Register("reanalysis", replica.Location{
			Host: host, Addr: host + workflow.FileServicePort, Path: "/data/reanalysis",
		})
	}

	weather := nws.NewService()
	store := gns.NewStore(clock)
	store.Set("brecca", "reanalysis", gns.Mapping{Mode: gns.ModeReplicaRemote, LogicalName: "reanalysis"})

	clock.Run(func() {
		stopServices, err := workflow.StartServices(clock, grid)
		if err != nil {
			log.Fatal(err)
		}
		defer stopServices()
		// NWS sensors next to each file service; a monitor on brecca probes
		// both links every 30 simulated seconds.
		var targets []nws.Target
		for _, host := range []string{"bouscat", "koume00"} {
			m := grid.Machine(host)
			l, err := m.Listen(":8100")
			if err != nil {
				log.Fatal(err)
			}
			defer rpc.Start(clock, host+"-sensor", l, nws.NewSensor(clock).Serve)()
			targets = append(targets, nws.Target{
				Src: host, Dst: "brecca", Addr: host + ":8100", Dialer: grid.Machine("brecca"),
			})
		}
		// NOTE: probes measure host->brecca cost from brecca's side; the
		// selector ranks by (replica host -> reader) transfer estimates.
		mon := nws.NewMonitor(clock, weather, 30*time.Second, targets)
		stop := simclock.NewEvent(clock)
		clock.Go("monitor", func() { mon.Run(stop) })
		clock.Sleep(3 * time.Minute) // let forecasts accumulate

		brecca := grid.Machine("brecca")
		fm, err := core.New(core.Config{
			Machine: "brecca", Clock: clock, FS: brecca.FS(), Dialer: brecca,
			GNS: store, Replicas: replica.CatalogLookuper{Catalog: cat}, NWS: weather,
			RemapInterval: time.Minute,
		})
		if err != nil {
			log.Fatal(err)
		}

		f, err := fm.Open("reanalysis")
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		fmt.Printf("t=%v: opened; replica choices so far: %v\n",
			clock.Elapsed(), fm.Stats().ReplicaChoices())

		var got bytes.Buffer
		buf := make([]byte, 64<<10)
		readMB := func(mb int) {
			for got.Len() < mb<<20 {
				n, err := f.Read(buf)
				got.Write(buf[:n])
				if err != nil {
					log.Fatalf("read: %v", err)
				}
				clock.Sleep(500 * time.Millisecond) // the app computes as it reads
			}
		}
		readMB(1)
		fmt.Printf("t=%v: 1 MiB read; choices: %v, remaps: %d\n",
			clock.Elapsed(), fm.Stats().ReplicaChoices(), fm.Stats().Remaps())

		// The weather turns: the JP link collapses, the UK link improves.
		fmt.Println("--- degrading the koume00 link to 5s latency / 8 KB/s ---")
		grid.Network().SetLinkBoth("brecca", "koume00", simnet.LinkSpec{Latency: 5 * time.Second, Bandwidth: 8 << 10})
		clock.Sleep(5 * time.Minute) // probes notice

		readMB(4)
		fmt.Printf("t=%v: full read done; choices: %v, remaps: %d\n",
			clock.Elapsed(), fm.Stats().ReplicaChoices(), fm.Stats().Remaps())
		if !bytes.Equal(got.Bytes(), data) {
			log.Fatal("data corrupted across the re-bind")
		}
		fmt.Println("bytes identical across the mid-read replica switch")
		stop.Set()

		// Mechanism 5 for contrast: replica-copy stages the best replica to
		// local disk, then reads locally.
		store.Set("brecca", "reanalysis-local", gns.Mapping{
			Mode: gns.ModeReplicaCopy, LogicalName: "reanalysis", LocalPath: "/scratch/reanalysis",
		})
		lf, err := fm.Open("reanalysis-local")
		if err != nil {
			log.Fatal(err)
		}
		lf.Close()
		fmt.Printf("replica-copy staged %d bytes locally (choices now %v)\n",
			fm.Stats().StagedIn(), fm.Stats().ReplicaChoices())
	})
}
