package main

import (
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"time"
)

// The service layers a loopback address can belong to. They key the
// per-layer ledger: every dial, connection wait and wire byte the seams see
// is charged to the service behind the address.
const (
	svcNone = iota
	svcGNS
	svcGridFTP
	svcGridBuffer
	svcObjStore
	numSvc
)

var svcNames = [numSvc]string{"", "gns", "gridftp", "gridbuffer", "objstore"}

// daemonOf names the daemon binary serving each service layer.
var daemonOf = [numSvc]string{"", "gnsd", "gridftpd", "gridbufferd", "objstored"}

// moduleRoot walks up from the working directory to the directory holding
// go.mod: `go run ./gridlab` starts at the root, `go test` inside gridlab/.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("gridlab: no go.mod above the working directory; run from the repository root")
		}
		dir = parent
	}
}

// buildDaemons compiles the four cmd/ daemons under test into binDir and
// reports how long that took (build_s in the summary; not a metric).
func buildDaemons(root, binDir string) (time.Duration, error) {
	if err := os.MkdirAll(binDir, 0o755); err != nil {
		return 0, err
	}
	args := []string{"build", "-o", binDir + string(filepath.Separator)}
	for _, d := range daemonOf[1:] {
		args = append(args, "./cmd/"+d)
	}
	start := time.Now()
	cmd := exec.Command("go", args...)
	cmd.Dir = root
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return 0, fmt.Errorf("gridlab: building daemons: %w", err)
	}
	return time.Since(start), nil
}

// daemon is one launched OS process of the grid under test.
type daemon struct {
	name string // log-file stem, e.g. "gnsd-1b"
	svc  int
	addr string
	cmd  *exec.Cmd
	log  *os.File
}

// grid is the running deployment: a 2-shard x 2-member gnsd ring, two
// gridftpd (the second holds replicas), one gridbufferd, one objstored,
// all with default flags on loopback ports picked free at start.
type grid struct {
	dir      string   // work directory; everything the run writes lives here
	gnsSeeds []string // one member per shard, for NewShardedClient
	ftp      [2]string
	ftpRoot  [2]string
	buf, obj string
	svcOf    map[string]int // listen address -> service layer

	mu      sync.Mutex
	daemons []*daemon
	stopped bool
	rssPeak [numSvc]int64 // bytes; the largest daemon of each service, set by stop
}

// freePorts reserves n distinct loopback ports by holding n listeners open
// at once, then releases them for the daemons to bind.
func freePorts(n int) ([]string, error) {
	addrs := make([]string, 0, n)
	ls := make([]net.Listener, 0, n)
	defer func() {
		for _, l := range ls {
			l.Close()
		}
	}()
	for i := 0; i < n; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		ls = append(ls, l)
		addrs = append(addrs, l.Addr().String())
	}
	return addrs, nil
}

// startGrid launches every daemon from binDir with its state under dir and
// returns once each accepts connections.
func startGrid(binDir, dir string) (*grid, error) {
	addrs, err := freePorts(8)
	if err != nil {
		return nil, err
	}
	g := &grid{dir: dir, svcOf: make(map[string]int)}
	gnsAddrs := addrs[:4]
	g.ftp = [2]string{addrs[4], addrs[5]}
	g.buf, g.obj = addrs[6], addrs[7]
	g.gnsSeeds = []string{gnsAddrs[0], gnsAddrs[2]}
	ring := fmt.Sprintf("0=%s,%s;1=%s,%s", gnsAddrs[0], gnsAddrs[1], gnsAddrs[2], gnsAddrs[3])

	for _, sub := range []string{"logs", "ftp0", "ftp1", "bufcache"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, err
		}
	}
	g.ftpRoot = [2]string{filepath.Join(dir, "ftp0"), filepath.Join(dir, "ftp1")}

	type launch struct {
		name string
		svc  int
		addr string
		args []string
	}
	var launches []launch
	for i, a := range gnsAddrs {
		launches = append(launches, launch{
			name: fmt.Sprintf("gnsd-%d%c", i/2, 'a'+i%2), svc: svcGNS, addr: a,
			args: []string{"-listen", a, "-ring", ring, "-shard-id", fmt.Sprint(i / 2), "-self", a},
		})
	}
	for i, a := range g.ftp {
		launches = append(launches, launch{
			name: fmt.Sprintf("gridftpd-%d", i), svc: svcGridFTP, addr: a,
			args: []string{"-listen", a, "-root", g.ftpRoot[i]},
		})
	}
	launches = append(launches,
		launch{name: "gridbufferd", svc: svcGridBuffer, addr: g.buf,
			args: []string{"-listen", g.buf, "-cache", filepath.Join(dir, "bufcache")}},
		launch{name: "objstored", svc: svcObjStore, addr: g.obj,
			args: []string{"-listen", g.obj}},
	)
	for _, l := range launches {
		logf, err := os.Create(filepath.Join(dir, "logs", l.name+".log"))
		if err != nil {
			g.stop()
			return nil, err
		}
		cmd := exec.Command(filepath.Join(binDir, daemonOf[l.svc]), l.args...)
		cmd.Stdout, cmd.Stderr = logf, logf
		cmd.SysProcAttr = daemonSysProcAttr()
		if err := cmd.Start(); err != nil {
			logf.Close()
			g.stop()
			return nil, fmt.Errorf("gridlab: starting %s: %w", l.name, err)
		}
		g.daemons = append(g.daemons, &daemon{name: l.name, svc: l.svc, addr: l.addr, cmd: cmd, log: logf})
		g.svcOf[l.addr] = l.svc
	}
	if err := g.waitReady(10 * time.Second); err != nil {
		g.stop()
		return nil, err
	}
	return g, nil
}

// waitReady dial-polls every daemon until it accepts a connection.
func (g *grid) waitReady(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for _, d := range g.daemons {
		for {
			conn, err := net.DialTimeout("tcp", d.addr, time.Second)
			if err == nil {
				conn.Close()
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("gridlab: %s not accepting on %s after %v: %v%s", d.name, d.addr, timeout, err, g.logTail(d))
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	return nil
}

// logTail returns the end of a daemon's log for an error message.
func (g *grid) logTail(d *daemon) string {
	data, err := os.ReadFile(d.log.Name())
	if err != nil || len(data) == 0 {
		return ""
	}
	if len(data) > 600 {
		data = data[len(data)-600:]
	}
	return "\n--- " + d.name + " log ---\n" + strings.TrimSpace(string(data))
}

// cpu reports the CPU time each service's daemons have used so far, read
// from /proc so a measured interval can be bracketed while they run.
func (g *grid) cpu() (per [numSvc]time.Duration) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, d := range g.daemons {
		per[d.svc] += procCPU(d.cmd.Process.Pid)
	}
	return per
}

// stop notes every daemon's peak RSS, then kills and reaps it. It is safe
// to call more than once and from the watchdog while clients are mid-op:
// dead daemons turn every blocked client call into an error instead of a
// hang.
func (g *grid) stop() {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.stopped {
		return
	}
	g.stopped = true
	for _, d := range g.daemons {
		g.rssPeak[d.svc] = max(g.rssPeak[d.svc], procPeakRSS(d.cmd.Process.Pid))
		d.cmd.Process.Kill()
	}
	for _, d := range g.daemons {
		d.cmd.Wait()
		d.log.Close()
	}
}

// tcpDialer is the network identity of every client in the harness.
type tcpDialer struct{}

func (tcpDialer) Dial(addr string) (net.Conn, error) { return net.Dial("tcp", addr) }

// writeFileAtomic writes data to path through a temporary sibling, so a
// reader never sees half a file.
func writeFileAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}
