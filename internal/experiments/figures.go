package experiments

import (
	"fmt"
	"io"
	"strings"
	"time"

	"griddles/internal/gridbuffer"
	"griddles/internal/mech"
	"griddles/internal/rpc"
	"griddles/internal/simclock"
	"griddles/internal/simnet"
	"griddles/internal/vfs"
	"griddles/internal/workflow"
)

// Figure1DOT renders the paper's Figure 1 sample workflow — three phases on
// three machines fed by a database, an instrument and replicated files — as
// a Graphviz graph.
func Figure1DOT() string {
	spec := &workflow.Spec{
		Name: "figure1-sample-workflow",
		Components: []workflow.Component{
			{Name: "phase1", Machine: "machine1",
				Inputs:  []string{"database", "instrument-stream"},
				Outputs: []string{"phase1.out"}},
			{Name: "phase2", Machine: "machine2",
				Inputs:  []string{"phase1.out", "replicated-input"},
				Outputs: []string{"phase2a.out", "phase2b.out"}},
			{Name: "phase3", Machine: "machine3",
				Inputs:  []string{"phase2a.out", "phase2b.out"},
				Outputs: []string{"final.out"}},
		},
	}
	return spec.DOT()
}

// Figure5DOT renders the durability pipeline's file graph (paper Figure 5).
func Figure5DOT() string {
	return mech.PipelineSpec(mech.TinyParams(), mech.Experiment3()).DOT()
}

// Figure4DOT renders the GriddLeS architecture (paper Figures 2 and 4): the
// File Multiplexer's client modules and the services they talk to.
func Figure4DOT() string {
	var b strings.Builder
	b.WriteString("digraph griddles {\n  rankdir=LR;\n  node [shape=box];\n")
	b.WriteString("  app [label=\"Legacy Application\\n(read/write/seek/open/close)\", style=bold];\n")
	b.WriteString("  subgraph cluster_fm {\n    label=\"File Multiplexer\";\n")
	b.WriteString("    gnsc [label=\"GNS Client\"];\n    lfc [label=\"Local File Client\"];\n")
	b.WriteString("    rfc [label=\"Remote File Client\"];\n    gbc [label=\"Grid Buffer Client\"];\n  }\n")
	b.WriteString("  gns [label=\"GriddLeS Name Server (GNS)\", shape=cylinder];\n")
	b.WriteString("  lfs [label=\"Local File System\", shape=folder];\n")
	b.WriteString("  ftp [label=\"GridFTP Server\", shape=component];\n")
	b.WriteString("  gbs [label=\"Grid Buffer Server\", shape=component];\n")
	b.WriteString("  rc [label=\"Replica Catalogue\", shape=cylinder];\n")
	b.WriteString("  nws [label=\"Network Weather Service\", shape=cylinder];\n")
	for _, e := range []string{
		"app -> gnsc", "app -> lfc", "app -> rfc", "app -> gbc",
		"gnsc -> gns", "lfc -> lfs", "rfc -> ftp", "gbc -> gbs",
		"gnsc -> rc [style=dashed]", "gnsc -> nws [style=dashed]",
	} {
		fmt.Fprintf(&b, "  %s;\n", e)
	}
	b.WriteString("}\n")
	return b.String()
}

// Figure3Trace runs a miniature writer/reader Grid Buffer session with a
// backward seek and returns an event trace demonstrating the paper's
// Figure 3: direct socket coupling with the cache file serving re-reads.
func Figure3Trace() (string, error) {
	var b strings.Builder
	v := simclock.NewVirtualDefault()
	net := simnet.New(v)
	net.SetLinkBoth("writer", "reader", simnet.LinkSpec{Latency: 5 * time.Millisecond})
	fs := vfs.NewMemFS()
	reg := gridbuffer.NewRegistry(v, fs)
	var runErr error
	v.Run(func() {
		l, err := net.Host("reader").Listen("reader:7000")
		if err != nil {
			runErr = err
			return
		}
		defer rpc.Start(v, "gb-serve", l, gridbuffer.NewServer(reg, v).Serve)()
		logf := func(format string, args ...any) {
			fmt.Fprintf(&b, "[t=%8s] %s\n", v.Now().Sub(simclock.DefaultBase).Round(time.Millisecond), fmt.Sprintf(format, args...))
		}
		opts := gridbuffer.Options{BlockSize: 8, Cache: true}
		done := simclock.NewWaitGroup(v)
		done.Add(1)
		v.Go("reader", func() {
			defer done.Done()
			r, err := gridbuffer.NewReader(net.Host("reader"), "reader:7000", v, "blah", opts, gridbuffer.ReaderOptions{})
			if err != nil {
				runErr = err
				return
			}
			defer r.Close()
			buf := make([]byte, 8)
			for i := 0; i < 3; i++ {
				n, _ := io.ReadFull(r, buf)
				logf("reader: read block %d: %q (blocked until written)", i, buf[:n])
			}
			r.Seek(0, io.SeekStart)
			logf("reader: seek back to start")
			n, _ := io.ReadFull(r, buf)
			logf("reader: re-read block 0 from cache file: %q", buf[:n])
			rest, _ := io.ReadAll(r)
			logf("reader: drained remaining %d bytes to EOF", len(rest))
		})
		w, err := gridbuffer.NewWriter(net.Host("writer"), "reader:7000", v, "blah", opts, gridbuffer.WriterOptions{})
		if err != nil {
			runErr = err
			return
		}
		for i := 0; i < 3; i++ {
			v.Sleep(100 * time.Millisecond) // one block per simulated timestep
			block := fmt.Sprintf("step-%03d", i)
			w.Write([]byte(block))
			logf("writer: wrote block %d: %q", i, block)
		}
		w.Close()
		logf("writer: closed stream (EOF)")
		done.Wait()
	})
	if runErr != nil {
		return "", runErr
	}
	return b.String(), nil
}

// Figure6 renders the stress distribution around the default hole shape
// (paper Figure 6) as an ASCII heat map plus a binary PGM image.
func Figure6(rows, cols int) (ascii string, pgm []byte) {
	p := mech.DefaultParams()
	field := mech.StressField(p.Tension, p.Shape, rows, cols, p.Extent/2)
	return mech.RenderASCII(field, rows, cols, 24, 48), mech.RenderPGM(field, rows, cols)
}
