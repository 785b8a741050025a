package core

import (
	"bytes"
	"io"
	"math/rand"
	"testing"

	"griddles/internal/gns"
	"griddles/internal/vfs"
)

// TestStagedCopyIsExact: stage-in (mechanisms 2 and 5) overwrites the local
// copy in place, so after every OPEN the copy must equal the remote in bytes
// and in size, whatever an earlier OPEN staged into the same local path. The
// remote shrinks from 1 MiB to 100 KiB, grows to 300 KiB, then goes 1 MiB →
// 600 KiB: on mechanism 5 the first and the last two stage striped across
// three replicas, the rest through the single-source CopyIn fallback.
func TestStagedCopyIsExact(t *testing.T) {
	shapes := []int{1 << 20, 100 << 10, 300 << 10, 1 << 20, 600 << 10}
	locals := []struct {
		name string
		fs   func(t *testing.T) vfs.FS
	}{
		{"memfs", func(*testing.T) vfs.FS { return vfs.NewMemFS() }},
		{"osfs", func(t *testing.T) vfs.FS { return vfs.NewOSFS(t.TempDir()) }},
	}
	mechanisms := []struct {
		name    string
		streams int
		mode    gns.Mode
	}{
		{"copy/streams=1", 1, gns.ModeCopy},
		{"copy/streams=4", 4, gns.ModeCopy},
		{"replica-copy", 1, gns.ModeReplicaCopy},
	}
	for _, local := range locals {
		for _, mech := range mechanisms {
			t.Run(local.name+"/"+mech.name, func(t *testing.T) {
				e := newEnv()
				fsys := local.fs(t)
				switch mech.mode {
				case gns.ModeCopy:
					e.store.Set("dione", "big", gns.Mapping{Mode: gns.ModeCopy, RemoteHost: "bouscat" + ftpPort, RemotePath: "/rep/big", LocalPath: "/tmp/big"})
				case gns.ModeReplicaCopy:
					stripedDataset(e, "dione", 1) // the catalogue and mapping; each stage writes the bytes
				}
				e.v.Run(func() {
					e.startServices(t)
					fm := e.fm(t, "dione", func(c *Config) { c.FS, c.CopyStreams = fsys, mech.streams })
					striped := 0
					for i, size := range shapes {
						want := make([]byte, size)
						rand.New(rand.NewSource(int64(i))).Read(want)
						for _, host := range stripeHosts {
							if err := vfs.WriteFile(e.grid.Machine(host).RawFS(), "/rep/big", want); err != nil {
								t.Fatal(err)
							}
						}
						if mech.mode == gns.ModeReplicaCopy && size >= stripeMinFile {
							striped++
						}
						f, err := fm.Open("big")
						if err != nil {
							t.Fatalf("stage %d: %v", i, err)
						}
						got, err := io.ReadAll(f)
						f.Close()
						if err != nil {
							t.Fatal(err)
						}
						fi, err := fsys.Stat("/tmp/big")
						if err != nil {
							t.Fatal(err)
						}
						if fi.Size() != int64(size) || !bytes.Equal(got, want) {
							t.Fatalf("stage %d: the local copy is %d bytes, %d read (bytes equal: %v), the remote %d",
								i, fi.Size(), len(got), bytes.Equal(got, want), size)
						}
					}
					if plans := fm.Obs().Counter("ftp.stripe.plan.total").Value(); plans != int64(striped) {
						t.Fatalf("%d striped stage-ins, want %d", plans, striped)
					}
				})
			})
		}
	}
}
