package daemon

import (
	"bytes"
	"flag"
	"io"
	"log"
	"net"
	"os"
	"strings"
	"syscall"
	"testing"

	"griddles/internal/obs"
)

func parse(t *testing.T, spec Spec, args ...string) (*Daemon, *flag.FlagSet) {
	t.Helper()
	fs := flag.NewFlagSet(spec.Name, flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	d := Register(fs, spec)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return d, fs
}

// quietLog silences the shell's log lines for the test's duration.
func quietLog(t *testing.T) {
	t.Helper()
	w := log.Writer()
	log.SetOutput(io.Discard)
	t.Cleanup(func() { log.SetOutput(w) })
}

// TestRegisterFlagSets: each Spec registers exactly the shared flags its
// daemon takes.
func TestRegisterFlagSets(t *testing.T) {
	for _, tc := range []struct {
		spec Spec
		want string
	}{
		{Spec{Name: "nwsd", Listen: ":8200"}, "listen"},
		{Spec{Name: "gnsd", Listen: ":5000", Admission: PerRequest}, "admit-limit admit-queue admit-target listen"},
		{Spec{Name: "gridbufferd", Listen: ":7000", Admission: PerStream, Codecs: true}, "admit-limit admit-queue codecs listen"},
		{Spec{Name: "gridftpd", Listen: ":6000", Admission: PerRequest, Codecs: true}, "admit-limit admit-queue admit-target codecs listen"},
	} {
		_, fs := parse(t, tc.spec)
		var names []string
		fs.VisitAll(func(f *flag.Flag) { names = append(names, f.Name) })
		if got := strings.Join(names, " "); got != tc.want {
			t.Errorf("%s registers %q, want %q", tc.spec.Name, got, tc.want)
		}
	}
}

func TestCodecs(t *testing.T) {
	quietLog(t)
	d, _ := parse(t, Spec{Name: "x", Codecs: true})
	if got := d.Codecs(); got != nil {
		t.Errorf("no -codecs: %v, want nil (everything supported)", got)
	}
	d, _ = parse(t, Spec{Name: "x", Codecs: true}, "-codecs", "raw, lzb")
	if got := strings.Join(d.Codecs(), ","); got != "raw,lzb" {
		t.Errorf("-codecs 'raw, lzb': %q", got)
	}
}

func TestAdmission(t *testing.T) {
	quietLog(t)
	d, _ := parse(t, Spec{Name: "x", Admission: PerRequest})
	if c := d.Admission(); c != nil {
		t.Error("admission built without -admit-limit")
	}
	d, _ = parse(t, Spec{Name: "svc", Admission: PerRequest}, "-admit-limit", "3", "-admit-target", "50ms", "-admit-queue", "4")
	c := d.Admission()
	if c == nil {
		t.Fatal("-admit-limit 3 built no controller")
	}
	if got := d.Obs.Snapshot().Gauges[obs.Key("admit.limit", "service", "svc")]; got != 3 {
		t.Errorf("admit.limit in the daemon's observer = %d, want 3", got)
	}
}

// TestRunStopsOnSignal: a signal closes the listener, and the report holds
// the snapshot lines and the trace ring.
func TestRunStopsOnSignal(t *testing.T) {
	quietLog(t)
	d, _ := parse(t, Spec{Name: "x", Listen: "127.0.0.1:0"})
	d.Obs.Counter("x.total").Add(7)
	d.Obs.Emit("x.event", "test")
	stop := make(chan os.Signal, 1)
	stop <- syscall.SIGTERM
	served := make(chan struct{})
	var out bytes.Buffer
	d.run(d.Listen(d.listen), func(l net.Listener) {
		defer close(served)
		if _, err := l.Accept(); err == nil {
			t.Error("accepted on a listener the shell closed")
		}
	}, stop, &out)
	<-served
	if got := out.String(); !strings.Contains(got, "x.total 7\n") || !strings.Contains(got, `"type":"x.event"`) {
		t.Errorf("report:\n%s", got)
	}
}

// TestRunEndsWithServe: a server whose accept loop returns ends the run
// too, still reporting.
func TestRunEndsWithServe(t *testing.T) {
	quietLog(t)
	d, _ := parse(t, Spec{Name: "x", Listen: "127.0.0.1:0"})
	var out bytes.Buffer
	d.run(d.Listen(d.listen), func(l net.Listener) { l.Close() }, make(chan os.Signal), &out)
	if out.Len() != 0 {
		t.Errorf("empty observer reported %q", out.String())
	}
}
