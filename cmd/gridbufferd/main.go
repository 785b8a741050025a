// Command gridbufferd runs a Grid Buffer service over real TCP: the
// writer/reader rendezvous of paper §4, with cache files spilled into a
// local directory so readers can seek backward in live streams.
package main

import (
	"flag"
	"os"

	"griddles/internal/daemon"
	"griddles/internal/gridbuffer"
	"griddles/internal/simclock"
	"griddles/internal/vfs"
)

func main() {
	d := daemon.Register(flag.CommandLine, daemon.Spec{Name: "gridbufferd", Listen: ":7000", Admission: daemon.PerStream, Codecs: true})
	cacheDir := flag.String("cache", os.TempDir(), "directory for buffer cache files")
	shards := flag.Int("shards", 0, "block-table shards per buffer (0 = default, rounded up to a power of two)")
	flag.Parse()

	d.Must(os.MkdirAll(*cacheDir, 0o755))
	reg := gridbuffer.NewRegistry(simclock.Real{}, vfs.NewOSFS(*cacheDir))
	reg.SetDefaultShards(*shards)
	reg.SetObserver(d.Obs)
	srv := gridbuffer.NewServer(reg, simclock.Real{})
	srv.SetCodecs(d.Codecs())
	srv.SetAdmission(d.Admission())
	d.Serve(srv.Serve)
}
