package daemon_test

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"griddles/internal/gns"
	"griddles/internal/gridbuffer"
	"griddles/internal/gridftp"
	"griddles/internal/nws"
	"griddles/internal/objstore"
	"griddles/internal/rpc"
	"griddles/internal/simclock"
)

var updateFlags = flag.Bool("update-flags", false, "re-record testdata/flags.golden from the built daemons")

// daemons are the five service mains under cmd/.
var daemons = []string{"gnsd", "gridftpd", "gridbufferd", "objstored", "nwsd"}

var (
	buildOnce sync.Once
	binDir    string
	buildErr  error
)

// buildDaemons compiles the five daemons once per test binary into a
// directory that outlives the individual tests.
func buildDaemons(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		binDir, buildErr = os.MkdirTemp("", "griddles-daemons-")
		if buildErr != nil {
			return
		}
		args := []string{"build", "-o", binDir + string(filepath.Separator)}
		for _, d := range daemons {
			args = append(args, "./cmd/"+d)
		}
		cmd := exec.Command("go", args...)
		cmd.Dir = filepath.Join("..", "..")
		if out, err := cmd.CombinedOutput(); err != nil {
			buildErr = fmt.Errorf("go build: %v\n%s", err, out)
		}
	})
	if buildErr != nil {
		t.Fatal(buildErr)
	}
	return binDir
}

func TestMain(m *testing.M) {
	flag.Parse()
	code := m.Run()
	if binDir != "" {
		os.RemoveAll(binDir)
	}
	os.Exit(code)
}

// TestFlagListings pins every daemon's -h output: flag names, defaults and
// usage strings. TMPDIR is fixed so gridbufferd's -cache default (the
// system temporary directory) reads the same on every machine.
func TestFlagListings(t *testing.T) {
	bin := buildDaemons(t)
	var got bytes.Buffer
	for _, d := range daemons {
		cmd := exec.Command(filepath.Join(bin, d), "-h")
		cmd.Args[0] = d
		cmd.Env = append(os.Environ(), "TMPDIR=/tmp")
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("%s -h: %v\n%s", d, err, out)
		}
		got.WriteString("== " + d + " ==\n")
		got.Write(out)
	}
	golden := filepath.Join("testdata", "flags.golden")
	if *updateFlags {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("-h listings differ from %s (-update-flags re-records); got:\n%s", golden, got.String())
	}
}

// TestDaemonSmoke starts each built daemon on a loopback port, completes
// one request against it, sends SIGTERM and checks that the daemon exits 0
// within 2 s having logged a metric snapshot naming what the request
// recorded.
func TestDaemonSmoke(t *testing.T) {
	bin := buildDaemons(t)
	clock := simclock.Real{}
	dial := rpc.TCPDialer{}
	cases := []struct {
		name    string
		bin     string // the daemon, when name is not its name
		args    []string
		request func(t *testing.T, addr string)
		metrics []string
	}{
		{
			name: "gnsd",
			request: func(t *testing.T, addr string) {
				c := gns.NewClient(dial, addr, clock)
				defer c.Close()
				if _, err := c.Resolve("jagan", "JOB.DAT"); err != nil {
					t.Fatal(err)
				}
			},
			metrics: []string{"gns.resolve.total 1", "gns.set.total 0"},
		},
		{
			// A Watch with no timeout waits on the store and never reads
			// its connection again; stopping must end it.
			name: "gnsd-waiting-watch",
			bin:  "gnsd",
			request: func(t *testing.T, addr string) {
				c := gns.NewClient(dial, addr, clock)
				go func() {
					c.Watch("jagan", "JOB.DAT", 0, 0)
					c.Close()
				}()
				time.Sleep(200 * time.Millisecond) // the Watch reaches the server and waits there
			},
			metrics: []string{"gns.watch.total 1"},
		},
		{
			name: "gridftpd",
			args: []string{"-admit-limit", "2", "-root", t.TempDir()},
			request: func(t *testing.T, addr string) {
				c := gridftp.NewClient(dial, addr, clock)
				defer c.Close()
				if _, _, err := c.Stat("absent"); err != nil {
					t.Fatal(err)
				}
			},
			metrics: []string{"admit.admitted.total{service=gridftpd,class=control} 1", "admit.limit{service=gridftpd} 2"},
		},
		{
			name: "gridbufferd",
			args: []string{"-cache", t.TempDir()},
			request: func(t *testing.T, addr string) {
				w, err := gridbuffer.NewWriter(dial, addr, clock, "smoke", gridbuffer.Options{}, gridbuffer.WriterOptions{})
				if err != nil {
					t.Fatal(err)
				}
				if _, err := w.Write([]byte("one block")); err != nil {
					t.Fatal(err)
				}
				if err := w.Close(); err != nil {
					t.Fatal(err)
				}
				r, err := gridbuffer.NewReader(dial, addr, clock, "smoke", gridbuffer.Options{}, gridbuffer.ReaderOptions{})
				if err != nil {
					t.Fatal(err)
				}
				defer r.Close()
				if got, err := io.ReadAll(r); err != nil || string(got) != "one block" {
					t.Fatalf("read %q, %v", got, err)
				}
			},
			// The snapshot is taken as the listener closes, before the stop
			// drops the buffer and its key-labelled metrics.
			metrics: []string{"gb.put.total{key=smoke} 1", "buf.window.depth count=1 "},
		},
		{
			// A reader parked in a buffer wait never reads its connection
			// again; stopping must wake it by dropping the buffer.
			name: "gridbufferd-waiting-reader",
			bin:  "gridbufferd",
			args: []string{"-cache", t.TempDir()},
			request: func(t *testing.T, addr string) {
				r, err := gridbuffer.NewReader(dial, addr, clock, "waiting", gridbuffer.Options{}, gridbuffer.ReaderOptions{})
				if err != nil {
					t.Fatal(err)
				}
				go func() {
					io.ReadAll(r)
					r.Close()
				}()
				time.Sleep(200 * time.Millisecond) // its GET-WIN reaches the server and waits there
			},
			metrics: []string{"buf.window.depth count=1 ", "gb.readers.attached{key=waiting} 1"},
		},
		{
			name: "objstored",
			args: []string{"-admit-limit", "2"},
			request: func(t *testing.T, addr string) {
				c := objstore.NewClient(dial, addr, clock)
				defer c.Close()
				if _, _, err := c.Stat("absent"); err != nil {
					t.Fatal(err)
				}
			},
			metrics: []string{"admit.admitted.total{service=objstored,class=control} 1", "admit.limit{service=objstored} 2"},
		},
		{
			name: "nwsd",
			// The sensor records no metric: the probe completing is the check.
			request: func(t *testing.T, addr string) {
				p := nws.NewProber(clock, dial)
				p.Burst = 64 * 1024
				if _, bw, err := p.Probe(addr); err != nil || bw <= 0 {
					t.Fatalf("probe: bandwidth %v, %v", bw, err)
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			daemon := tc.name
			if tc.bin != "" {
				daemon = tc.bin
			}
			cmd := exec.Command(filepath.Join(bin, daemon), append([]string{"-listen", "127.0.0.1:0"}, tc.args...)...)
			stderr, err := cmd.StderrPipe()
			if err != nil {
				t.Fatal(err)
			}
			if err := cmd.Start(); err != nil {
				t.Fatal(err)
			}
			lines := make(chan string)
			go func() {
				defer close(lines)
				sc := bufio.NewScanner(stderr)
				for sc.Scan() {
					lines <- sc.Text()
				}
			}()
			defer func() {
				cmd.Process.Kill()
				for range lines {
				}
				cmd.Wait()
			}()
			// Wait for the start-up line and for the signal handler to be
			// installed, which the shell logs a moment after start-up.
			var log strings.Builder
			addr, armed := "", false
			for addr == "" || !armed {
				select {
				case line, ok := <-lines:
					if !ok {
						t.Fatalf("exited before serving:\n%s", log.String())
					}
					log.WriteString(line + "\n")
					if _, a, found := strings.Cut(line, daemon+": serving on "); found {
						addr = a
					}
					armed = armed || strings.Contains(line, daemon+": SIGINT or SIGTERM now reports")
				case <-time.After(10 * time.Second):
					t.Fatalf("no start-up lines after 10s:\n%s", log.String())
				}
			}
			tc.request(t, addr)
			signaled := time.Now()
			if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
				t.Fatal(err)
			}
			// A daemon that does not stop fails the row instead of hanging it.
			defer time.AfterFunc(10*time.Second, func() { cmd.Process.Kill() }).Stop()
			for line := range lines {
				log.WriteString(line + "\n")
			}
			if err := cmd.Wait(); err != nil {
				t.Fatalf("exit after SIGTERM: %v\n%s", err, log.String())
			}
			if d := time.Since(signaled); d > 2*time.Second {
				t.Errorf("exited %v after SIGTERM, want within 2s", d)
			}
			out := log.String()
			for _, m := range tc.metrics {
				if !strings.Contains(out, "\n"+m) {
					t.Errorf("snapshot lacks %q:\n%s", m, out)
				}
			}
		})
	}
}
