// Command objstored runs the object-store service (the File Multiplexer's
// mechanism 7) over real TCP: whole-object immutable PUT, ranged GET and
// prefix LIST over an in-memory object table. Optionally pre-loads the
// table from a directory tree so existing files are servable as objects.
package main

import (
	"flag"
	"io/fs"
	"log"
	"os"
	"path/filepath"

	"griddles/internal/daemon"
	"griddles/internal/objstore"
	"griddles/internal/simclock"
)

func main() {
	d := daemon.Register(flag.CommandLine, daemon.Spec{Name: "objstored", Listen: ":7100", Admission: daemon.PerRequest, Codecs: true})
	seed := flag.String("seed", "", "optional directory whose files pre-load the object table (keys are slash-separated relative paths)")
	flag.Parse()

	store := objstore.NewStore()
	if *seed != "" {
		n, err := seedFrom(store, *seed)
		if err != nil {
			log.Fatalf("objstored: seeding from %q: %v", *seed, err)
		}
		log.Printf("objstored: seeded %d objects from %s", n, *seed)
	}
	srv := objstore.NewServer(store, simclock.Real{})
	srv.SetCodecs(d.Codecs())
	srv.SetAdmission(d.Admission())
	d.Serve(srv.Serve)
}

// seedFrom loads every regular file under root as an object keyed by its
// slash-separated relative path.
func seedFrom(store *objstore.Store, root string) (int, error) {
	n := 0
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		store.Put(filepath.ToSlash(rel), data)
		n++
		return nil
	})
	return n, err
}
