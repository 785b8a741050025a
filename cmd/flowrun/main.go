// Command flowrun demonstrates the File Multiplexer over real TCP: a
// producer and a consumer exchange a file-shaped stream, and the IO
// mechanism — local files, a staged copy through the file service, remote
// block IO, a direct Grid Buffer, or a whole object on the object store —
// is chosen with a flag by writing different GNS entries. The producer and
// consumer code never changes: that is the paper's whole point.
//
// Usage:
//
//	flowrun [-mode local|copy|remote|buffer|objstore|dag] [-mb 8] [-dir DIR]
//	        [-trace FILE] [-retries N] [-retry-timeout D] [-scheme NAME]
//
// All services (GNS, file service, Grid Buffer, object store) are started
// in-process on loopback TCP ports. -trace streams the run's JSONL event log
// (see OBSERVABILITY.md) to FILE. -retries / -retry-timeout configure the
// resilience policy threaded through every transport (DESIGN.md §7);
// -retries 1 is one attempt with no deadline. -gns-cache turns on client-side
// GNS resolve memoisation under server-granted leases (TTL-bounded; see
// internal/gns/cache.go).
//
// -mode objstore (alias: -mode 7) couples the pair through the object-store
// service: the producer's close commits one atomic PUT, the consumer polls
// for the object's visibility and reads it with ranged GETs. -scheme objstore
// demonstrates registry dispatch by scheme instead of mode: the consumer's
// GNS entry keeps Mode remote but carries Scheme "objstore", so the FM
// routes the open to the object-store backend and records an
// fm.backend.select decision in the trace (see OBSERVABILITY.md).
//
// -mode dag runs a diamond workflow on the simulated Table 1 testbed
// instead of the TCP pipe, demonstrating the DAG scheduler (DESIGN.md §10):
// -max-parallel sets the per-machine admission cap, -eager-copy overlaps
// staging copies with upstream compute, and -serial runs one stage at a time
// in topological order, the reference executor, for comparison.
//
// The durable-coordinator flags (DESIGN.md §14) compose with -mode dag:
// -journal FILE appends the coordinator's transition log; -kill-after N
// kills the coordinator after N dispatches; -resume replays the journal,
// truncates any torn tail, and finishes the DAG without recomputing
// journal-done stages; -speculate enables straggler speculation (and lands
// one transform on the slow jagan box so a backup attempt visibly wins):
//
//	flowrun -mode dag -journal /tmp/j.bin -kill-after 2
//	flowrun -mode dag -journal /tmp/j.bin -resume
package main

import (
	"crypto/sha256"
	"errors"
	"flag"
	"fmt"
	"hash"
	"io"
	"log"
	"net"
	"os"
	"time"

	"griddles/internal/core"
	"griddles/internal/gns"
	"griddles/internal/gridbuffer"
	"griddles/internal/gridftp"
	"griddles/internal/objstore"
	"griddles/internal/obs"
	"griddles/internal/retry"
	"griddles/internal/rpc"
	"griddles/internal/simclock"
	"griddles/internal/testbed"
	"griddles/internal/vfs"
	"griddles/internal/workflow"
)

func main() {
	mode := flag.String("mode", "buffer", "IO mechanism: local, copy, remote, buffer or objstore (alias: 7)")
	scheme := flag.String("scheme", "", "dispatch the consumer's mapping by this registry scheme instead of its mode (supported: objstore)")
	mb := flag.Int("mb", 8, "stream size in MiB")
	dir := flag.String("dir", "", "working directory (default: a temp dir)")
	trace := flag.String("trace", "", "stream the JSONL event log to this file")
	retries := flag.Int("retries", 4, "transport attempts per operation (1 = one attempt with no deadline, as core.Paper2004 runs)")
	retryTimeout := flag.Duration("retry-timeout", 10*time.Second, "per-attempt timeout when -retries > 1")
	cacheMB := flag.Int("cache-mb", 0, "FM block cache budget in MiB for remote reads (0 = disabled)")
	prefetchWindow := flag.Int("prefetch-window", core.DefaultPrefetchWindow, "ranged fetches kept in flight ahead of sequential remote reads (needs -cache-mb; 0 = disabled)")
	gnsCache := flag.Bool("gns-cache", false, "memoise GNS resolves client-side under server-granted leases (TTL-bounded)")
	maxParallel := flag.Int("max-parallel", 1, "stages allowed concurrently per machine under -mode dag")
	eagerCopy := flag.Bool("eager-copy", false, "start staging copies at producer close under -mode dag")
	serial := flag.Bool("serial", false, "force the strict-sequential executor under -mode dag")
	journal := flag.String("journal", "", "append the coordinator journal to FILE under -mode dag")
	resume := flag.Bool("resume", false, "replay -journal and resume the interrupted run instead of starting fresh")
	speculate := flag.Bool("speculate", false, "enable straggler speculation under -mode dag (moves one transform to the slow jagan box)")
	killAfter := flag.Int("kill-after", 0, "kill the coordinator after N stage dispatches (demonstrates -resume)")
	wireCodec := flag.String("wire-codec", "", "stream codec on every link: raw or lzb (empty = raw)")
	flag.Parse()

	if *mode == "dag" {
		runDAGDemo(*mb, *maxParallel, *eagerCopy, *serial, *journal, *resume, *speculate, *killAfter)
		return
	}

	work := *dir
	if work == "" {
		var err error
		work, err = os.MkdirTemp("", "flowrun-*")
		if err != nil {
			log.Fatalf("flowrun: %v", err)
		}
		defer os.RemoveAll(work)
	}
	for _, sub := range []string{"producer", "consumer", "cache"} {
		if err := os.MkdirAll(work+"/"+sub, 0o755); err != nil {
			log.Fatalf("flowrun: %v", err)
		}
	}
	clock := simclock.Real{}

	// Optional observability: one Observer shared by both FMs and the GNS.
	var observer *obs.Observer
	if *trace != "" {
		tf, err := os.Create(*trace)
		if err != nil {
			log.Fatalf("flowrun: %v", err)
		}
		defer tf.Close()
		observer = obs.NewWith(clock, obs.Config{Sink: tf})
	}

	// Bring up the three services on loopback.
	gnsStore := gns.NewStore(clock)
	if observer != nil {
		gnsStore.SetObserver(observer)
	}
	gnsAddr := serve(func(l net.Listener) { gns.NewServer(gnsStore, clock).Serve(l) })
	ftpAddr := serve(func(l net.Listener) {
		gridftp.NewServer(vfs.NewOSFS(work+"/producer"), clock).Serve(l)
	})
	bufAddr := serve(func(l net.Listener) {
		reg := gridbuffer.NewRegistry(clock, vfs.NewOSFS(work+"/cache"))
		gridbuffer.NewServer(reg, clock).Serve(l)
	})
	objAddr := serve(func(l net.Listener) {
		objstore.NewServer(objstore.NewStore(), clock).Serve(l)
	})
	log.Printf("flowrun: gns=%s gridftp=%s gridbuffer=%s objstore=%s", gnsAddr, ftpAddr, bufAddr, objAddr)

	// Configure the workflow purely through GNS entries.
	const file = "pipe.dat"
	switch *mode {
	case "local":
		// Both components on one "machine": plain local files with close
		// coordination. The consumer FM shares the producer's directory.
		gnsStore.Set("producer", file, gns.Mapping{Mode: gns.ModeLocal, WaitClose: true})
		gnsStore.Set("consumer", file, gns.Mapping{Mode: gns.ModeLocal, WaitClose: true})
	case "copy":
		gnsStore.Set("producer", file, gns.Mapping{Mode: gns.ModeLocal, WaitClose: true})
		gnsStore.Set("consumer", file, gns.Mapping{
			Mode: gns.ModeCopy, RemoteHost: ftpAddr, RemotePath: file, WaitClose: true,
		})
	case "remote":
		gnsStore.Set("producer", file, gns.Mapping{Mode: gns.ModeLocal, WaitClose: true})
		gnsStore.Set("consumer", file, gns.Mapping{
			Mode: gns.ModeRemote, RemoteHost: ftpAddr, RemotePath: file, WaitClose: true,
		})
	case "buffer":
		m := gns.Mapping{Mode: gns.ModeBuffer, BufferHost: bufAddr, BufferKey: "flowrun/" + file, CacheEnabled: true}
		gnsStore.Set("producer", file, m)
		gnsStore.Set("consumer", file, m)
	case "objstore", "7":
		m := gns.Mapping{
			Mode: gns.ModeObject, RemoteHost: objAddr, RemotePath: "flowrun/" + file, WaitClose: true,
		}
		gnsStore.Set("producer", file, m)
		gnsStore.Set("consumer", file, m)
	default:
		log.Fatalf("flowrun: unknown -mode %q", *mode)
	}
	if *scheme != "" {
		// Scheme-over-mode demonstration: the data lives on the object store
		// (the producer's entry says so by mode), while the consumer's entry
		// keeps its remote mode and is re-routed purely by Scheme — the FM
		// emits an fm.backend.select decision record for the override.
		if *scheme != "objstore" {
			log.Fatalf("flowrun: unsupported -scheme %q (supported: objstore)", *scheme)
		}
		gnsStore.Set("producer", file, gns.Mapping{
			Mode: gns.ModeObject, RemoteHost: objAddr, RemotePath: "flowrun/" + file, WaitClose: true,
		})
		gnsStore.Set("consumer", file, gns.Mapping{
			Mode: gns.ModeRemote, Scheme: "objstore",
			RemoteHost: objAddr, RemotePath: "flowrun/" + file, WaitClose: true,
		})
	}

	// The resilience policy for every transport (GNS lookups, file-service
	// and Grid Buffer traffic). -retries 1 keeps the zero policy: fail fast.
	var policy retry.Policy
	if *retries > 1 {
		policy = retry.Default(clock)
		policy.MaxAttempts = *retries
		policy.AttemptTimeout = *retryTimeout
	}

	fmFor := func(machine, fsDir string) *core.Multiplexer {
		gnsClient := gns.NewClient(rpc.TCPDialer{}, gnsAddr, clock)
		gnsClient.SetRetry(policy)
		if *gnsCache {
			gnsClient.SetObserver(observer)
			gnsClient.EnableCache()
		}
		fm, err := core.New(core.Config{
			Machine: machine,
			Clock:   clock,
			FS:      vfs.NewOSFS(fsDir),
			Dialer:  rpc.TCPDialer{},
			GNS:     gnsClient,
			Retry:   policy,
			Obs:     observer,
			// Real-network runs poll faster than the 2004 simulation.
			PollInterval:    20 * time.Millisecond,
			BlockCacheBytes: int64(*cacheMB) << 20,
			PrefetchWindow:  *prefetchWindow,
			WireCodec:       *wireCodec,
		})
		if err != nil {
			log.Fatalf("flowrun: %v", err)
		}
		return fm
	}
	consumerDir := work + "/consumer"
	if *mode == "local" {
		consumerDir = work + "/producer"
	}
	producerFM := fmFor("producer", work+"/producer")
	consumerFM := fmFor("consumer", consumerDir)

	total := int64(*mb) << 20
	start := time.Now()
	type result struct {
		sum hash.Hash
		n   int64
		err error
	}
	consumerDone := make(chan result, 1)
	go func() {
		var r result
		r.sum = sha256.New()
		f, err := consumerFM.Open(file)
		if err != nil {
			r.err = err
			consumerDone <- r
			return
		}
		defer f.Close()
		r.n, r.err = io.Copy(r.sum, f)
		consumerDone <- r
	}()

	// Producer: deterministic content, written in paper-sized blocks.
	wsum := sha256.New()
	f, err := producerFM.Create(file)
	if err != nil {
		log.Fatalf("flowrun: producer: %v", err)
	}
	block := make([]byte, 4096)
	var written int64
	for written < total {
		for i := range block {
			block[i] = byte(written/4096 + int64(i))
		}
		n := int64(len(block))
		if total-written < n {
			n = total - written
		}
		if _, err := f.Write(block[:n]); err != nil {
			log.Fatalf("flowrun: write: %v", err)
		}
		wsum.Write(block[:n])
		written += n
	}
	if err := f.Close(); err != nil {
		log.Fatalf("flowrun: close: %v", err)
	}
	producedAt := time.Since(start)

	r := <-consumerDone
	if r.err != nil {
		log.Fatalf("flowrun: consumer: %v", r.err)
	}
	if fmt.Sprintf("%x", r.sum.Sum(nil)) != fmt.Sprintf("%x", wsum.Sum(nil)) {
		log.Fatalf("flowrun: checksum mismatch (%d bytes)", r.n)
	}
	fmt.Printf("mode=%s bytes=%d producer=%v total=%v checksum=ok\n",
		*mode, r.n, producedAt.Round(time.Millisecond), time.Since(start).Round(time.Millisecond))
	fmt.Printf("producer FM: %s\n", producerFM.Stats())
	fmt.Printf("consumer FM: %s\n", consumerFM.Stats())
	if observer != nil {
		fmt.Printf("trace: %d events -> %s\n", observer.Trace().Total(), *trace)
		if err := observer.Trace().SinkErr(); err != nil {
			log.Fatalf("flowrun: trace sink: %v", err)
		}
	}
}

// serve starts fn on a fresh loopback listener and returns its address.
func serve(fn func(net.Listener)) string {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatalf("flowrun: %v", err)
	}
	go fn(l)
	return l.Addr().String()
}

// runDAGDemo runs a diamond workflow (source -> two independent transforms
// -> sink) on the simulated Table 1 testbed under the requested scheduler
// settings and prints the resulting schedule.
//
// With -journal FILE the coordinator appends its transition log there;
// -kill-after N kills the coordinator mid-run, and a second invocation with
// -resume replays the journal (truncating any torn tail) and finishes the
// DAG without recomputing journal-done stages. -speculate lands transform2
// on jagan (the testbed's slowest box) so the straggler monitor visibly
// launches, wins and repoints a backup attempt.
func runDAGDemo(mb, maxParallel int, eagerCopy, serial bool, journalPath string, resume, speculate bool, killAfter int) {
	payload := mb << 20
	write := func(ctx *workflow.Ctx, path string) error {
		w, err := ctx.FM.Create(path)
		if err != nil {
			return err
		}
		if _, err := w.Write(make([]byte, payload)); err != nil {
			return err
		}
		return w.Close()
	}
	read := func(ctx *workflow.Ctx, path string) error {
		r, err := ctx.FM.Open(path)
		if err != nil {
			return err
		}
		defer r.Close()
		if n, _ := io.Copy(io.Discard, r); n != int64(payload) {
			return fmt.Errorf("%s: read %d of %d bytes", path, n, payload)
		}
		return nil
	}
	mid := func(in, out string) func(*workflow.Ctx) error {
		return func(ctx *workflow.Ctx) error {
			if err := read(ctx, in); err != nil {
				return err
			}
			ctx.Compute(30)
			return write(ctx, out)
		}
	}
	spec := &workflow.Spec{Name: "diamond", Components: []workflow.Component{
		{Name: "source", Machine: "brecca", Outputs: []string{"src.dat"}, WorkHint: 5,
			Run: func(ctx *workflow.Ctx) error { ctx.Compute(5); return write(ctx, "src.dat") }},
		{Name: "transform1", Machine: "dione", Inputs: []string{"src.dat"}, Outputs: []string{"t1.dat"}, WorkHint: 30,
			Run: mid("src.dat", "t1.dat")},
		{Name: "transform2", Machine: "freak", Inputs: []string{"src.dat"}, Outputs: []string{"t2.dat"}, WorkHint: 30,
			Run: mid("src.dat", "t2.dat")},
		{Name: "sink", Machine: "brecca", Inputs: []string{"t1.dat", "t2.dat"}, WorkHint: 5,
			Run: func(ctx *workflow.Ctx) error {
				for _, in := range []string{"t1.dat", "t2.dat"} {
					if err := read(ctx, in); err != nil {
						return err
					}
				}
				ctx.Compute(5)
				return nil
			}},
	}}
	if speculate {
		// Give the straggler monitor something to rescue: the slowest box
		// on the testbed needs ~6x dione's time for the same transform.
		spec.Components[2].Machine = "jagan"
	}
	v := simclock.NewVirtualDefault()
	grid := testbed.DefaultGrid(v)
	observer := obs.New(v)
	runner := &workflow.Runner{
		Grid: grid, GNS: gns.NewStore(v), Obs: observer,
		MaxPerMachine: maxParallel, EagerCopy: eagerCopy, Serial: serial,
		Speculate: speculate, SpecMinSamples: 2,
	}
	if killAfter > 0 {
		runner.Kill = &workflow.KillSwitch{Point: workflow.KillDispatch, After: killAfter}
	}

	// The durable-coordinator path: an on-disk journal of scheduler
	// transitions (DESIGN.md §14). *os.File is the Sink; on -resume the
	// file is replayed and truncated to its clean prefix before this
	// session appends.
	var img *workflow.RunImage
	if journalPath != "" {
		if resume {
			data, err := os.ReadFile(journalPath)
			if err != nil {
				log.Fatalf("flowrun: resume: %v", err)
			}
			img, err = workflow.Replay(data)
			if err != nil {
				log.Fatalf("flowrun: resume: %v", err)
			}
			fmt.Printf("journal: replayed %d records, %d/%d stages done, torn=%v\n",
				img.Records, img.Done(), img.NStages, img.Torn)
		}
		jf, err := os.OpenFile(journalPath, os.O_RDWR|os.O_CREATE, 0o644)
		if err != nil {
			log.Fatalf("flowrun: journal: %v", err)
		}
		defer jf.Close()
		if img != nil {
			// Drop the torn tail a crash mid-append left behind, or the
			// fragment would mask this session's records from the next
			// replay.
			if err := jf.Truncate(int64(img.CleanLen)); err != nil {
				log.Fatalf("flowrun: journal: %v", err)
			}
		}
		if _, err := jf.Seek(0, io.SeekEnd); err != nil {
			log.Fatalf("flowrun: journal: %v", err)
		}
		runner.Journal = workflow.NewJournal(jf, v)
	} else if resume {
		log.Fatal("flowrun: -resume needs -journal FILE")
	}

	var report *workflow.Report
	killed := false
	v.Run(func() {
		stop, err := workflow.StartServices(v, grid)
		if err != nil {
			log.Fatalf("flowrun: %v", err)
		}
		defer stop()
		if img != nil {
			// On a real grid only the coordinator dies — machine disks keep
			// the done stages' outputs. The demo's simulated filesystems
			// live in this process, so re-materialize what would have
			// survived: each journal-done stage's outputs on its configured
			// machine (dropping any speculation home, whose namespaced
			// files died with the previous process too).
			for i, st := range img.States {
				if st != workflow.StageDone {
					continue
				}
				delete(img.Home, i)
				comp := spec.Components[i]
				for _, out := range comp.Outputs {
					if err := vfs.WriteFile(grid.Machine(comp.Machine).RawFS(), out, make([]byte, payload)); err != nil {
						log.Fatalf("flowrun: reseed %s: %v", out, err)
					}
				}
			}
			report, err = runner.Resume(spec, workflow.CouplingSequential, img)
		} else {
			report, err = runner.Run(spec, workflow.CouplingSequential)
		}
		if errors.Is(err, workflow.ErrCoordinatorKilled) {
			killed = true
		} else if err != nil {
			log.Fatalf("flowrun: %v", err)
		}
	})
	if killed {
		fmt.Printf("coordinator killed after %d dispatches; rerun with -journal %s -resume to finish\n",
			killAfter, journalPath)
	} else {
		fmt.Print(report)
	}
	c := observer.Snapshot().Counters
	fmt.Printf("scheduler: dispatched=%d eager started=%d adopted=%d discarded=%d failed=%d\n",
		c["wf.sched.dispatch.total"], c["wf.eagercopy.start.total"],
		c["wf.eagercopy.adopt.total"], c["wf.eagercopy.discard.total"],
		c["wf.eagercopy.fail.total"])
	if speculate {
		fmt.Printf("speculation: launched=%d won=%d lost=%d\n",
			c["wf.spec.launch.total"], c["wf.spec.win.total"], c["wf.spec.lose.total"])
	}
	if journalPath != "" {
		fmt.Printf("journal: appended=%d synced=%d snapshots=%d -> %s\n",
			c["wf.journal.append.total"], c["wf.journal.sync.total"],
			c["wf.journal.snapshot.total"], journalPath)
	}
}
