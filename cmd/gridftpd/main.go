// Command gridftpd runs the GridFTP-like file service over real TCP,
// exporting a directory tree for remote block IO, stage-in/stage-out
// copies and parallel-stream transfers.
package main

import (
	"flag"
	"log"
	"os"

	"griddles/internal/daemon"
	"griddles/internal/gridftp"
	"griddles/internal/simclock"
	"griddles/internal/vfs"
)

func main() {
	d := daemon.Register(flag.CommandLine, daemon.Spec{Name: "gridftpd", Listen: ":6000", Admission: daemon.PerRequest, Codecs: true})
	root := flag.String("root", ".", "directory to export")
	flag.Parse()

	if fi, err := os.Stat(*root); err != nil || !fi.IsDir() {
		log.Fatalf("gridftpd: -root %q is not a directory", *root)
	}
	srv := gridftp.NewServer(vfs.NewOSFS(*root), simclock.Real{})
	srv.SetCodecs(d.Codecs())
	srv.SetAdmission(d.Admission())
	d.Serve(srv.Serve)
}
