// Command gnsd runs a GriddLeS Name Service over real TCP — the shared
// configuration database of paper §3.2. Mappings can be pre-loaded from a
// simple text file and edited at run time by any gns.Client.
//
// Mapping file format (one entry per line, # comments allowed):
//
//	<machine> <path> local [localPath]
//	<machine> <path> copy <remoteHost:port> <remotePath> [localPath]
//	<machine> <path> remote <remoteHost:port> <remotePath>
//	<machine> <path> buffer <bufferHost:port> <key> [cache]
package main

import (
	"bufio"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"strings"

	"griddles/internal/daemon"
	"griddles/internal/gns"
	"griddles/internal/rpc"
	"griddles/internal/simclock"
)

func main() {
	d := daemon.Register(flag.CommandLine, daemon.Spec{Name: "gnsd", Listen: ":5000", Admission: daemon.PerRequest})
	mappings := flag.String("mappings", "", "optional mapping file to pre-load")
	ring := flag.String("ring", "", "shard ring spec '<id>=<primary>[,<replica>...];...' (empty = unsharded)")
	shardID := flag.Uint("shard-id", 0, "this member's shard id (with -ring)")
	self := flag.String("self", "", "this member's address exactly as written in -ring (with -ring)")
	leaseTTL := flag.Duration("lease-ttl", 0, "client cache lease TTL granted on resolves (0 = default)")
	flag.Parse()

	store := gns.NewStore(simclock.Real{})
	store.SetObserver(d.Obs)
	if *mappings != "" {
		d.Must(loadMappings(store, *mappings))
		log.Printf("gnsd: %d mappings pre-loaded", len(store.List()))
	}
	srv := gns.NewServer(store, simclock.Real{})
	srv.SetObserver(d.Obs)
	srv.SetLeaseTTL(*leaseTTL)
	srv.SetAdmission(d.Admission())
	// Shard once listening, so the member is reachable from its first heartbeat.
	d.Serve(func(l net.Listener) {
		if *ring != "" {
			sm, err := gns.ParseRing(*ring)
			d.Must(err)
			if *self == "" {
				log.Fatalf("gnsd: -ring requires -self (this member's address as written in the ring)")
			}
			d.Must(srv.EnableShard(gns.ShardConfig{
				Map:      sm,
				ID:       uint32(*shardID),
				Self:     *self,
				Dialer:   rpc.TCPDialer{},
				LeaseTTL: *leaseTTL,
			}))
			log.Printf("gnsd: sharded — member %s of shard %d (%d shards)", *self, *shardID, len(sm.Shards))
		}
		srv.Serve(l)
	})
}

func loadMappings(store *gns.Store, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) < 3 {
			return fmt.Errorf("%s:%d: want '<machine> <path> <mode> ...'", path, line)
		}
		machine, fpath, mode := fields[0], fields[1], fields[2]
		rest := fields[3:]
		var m gns.Mapping
		switch mode {
		case "local":
			m.Mode = gns.ModeLocal
			if len(rest) > 0 {
				m.LocalPath = rest[0]
			}
		case "copy", "remote":
			if len(rest) < 2 {
				return fmt.Errorf("%s:%d: %s needs <host:port> <remotePath>", path, line, mode)
			}
			m.Mode = gns.ModeCopy
			if mode == "remote" {
				m.Mode = gns.ModeRemote
			}
			m.RemoteHost, m.RemotePath = rest[0], rest[1]
			if mode == "copy" && len(rest) > 2 {
				m.LocalPath = rest[2]
			}
		case "buffer":
			if len(rest) < 2 {
				return fmt.Errorf("%s:%d: buffer needs <host:port> <key>", path, line)
			}
			m.Mode = gns.ModeBuffer
			m.BufferHost, m.BufferKey = rest[0], rest[1]
			if len(rest) > 2 && rest[2] == "cache" {
				m.CacheEnabled = true
			}
		default:
			return fmt.Errorf("%s:%d: unknown mode %q", path, line, mode)
		}
		store.Set(machine, fpath, m)
	}
	return sc.Err()
}
