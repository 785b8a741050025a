package core

import (
	"bytes"
	"context"
	"io"
	"strings"
	"testing"
	"time"

	"griddles/internal/gns"
	"griddles/internal/obs"
)

// toyBackend is a minimal out-of-tree-style backend used to prove the
// registry contract: it serves one fixed byte string for every path, written
// purely against the exported Env surface like an external author would.
type toyBackend struct {
	scheme  string
	content []byte
	opens   int
}

func (b *toyBackend) Scheme() string { return b.scheme }

func (b *toyBackend) Open(_ context.Context, env *Env, req OpenRequest) (File, error) {
	b.opens++
	r := bytes.NewReader(b.content)
	return env.File(req.Path, Handle{Reader: r, Seeker: r, CacheKey: "toy:" + req.Path}), nil
}

func (b *toyBackend) Stat(context.Context, *Env, string, gns.Mapping) (int64, bool, error) {
	return int64(len(b.content)), true, nil
}

func TestRegistryRegistration(t *testing.T) {
	r := NewRegistry()
	if err := r.Register(&toyBackend{scheme: "toy"}); err != nil {
		t.Fatalf("register: %v", err)
	}
	if err := r.Register(&toyBackend{scheme: "toy"}); err == nil {
		t.Error("duplicate scheme registered silently")
	}
	if err := r.Register(&toyBackend{}); err == nil {
		t.Error("empty scheme registered")
	}
	if _, ok := r.Lookup("toy"); !ok {
		t.Error("registered backend not found")
	}
	if _, ok := r.Lookup("nope"); ok {
		t.Error("lookup invented a backend")
	}
	r.MustRegister(&toyBackend{scheme: "aaa"})
	if got := r.Schemes(); len(got) != 2 || got[0] != "aaa" || got[1] != "toy" {
		t.Errorf("schemes = %v", got)
	}
}

// TestDefaultRegistryCarriesAllMechanisms pins that every GNS mode — the
// paper's six plus the object store — resolves to a builtin backend whose
// Scheme round-trips through SchemeForMode.
func TestDefaultRegistryCarriesAllMechanisms(t *testing.T) {
	r := DefaultRegistry()
	for mode := gns.ModeLocal; mode <= gns.ModeObject; mode++ {
		b, ok := r.Lookup(SchemeForMode(mode))
		if !ok {
			t.Errorf("mode %d (%s): no builtin backend", mode, mode)
			continue
		}
		if b.Scheme() != SchemeForMode(mode) {
			t.Errorf("mode %s: backend reports scheme %q", mode, b.Scheme())
		}
	}
	if got := len(r.Schemes()); got != 8 {
		t.Errorf("default registry carries %d schemes (%v), want 8", got, r.Schemes())
	}
}

// TestConfigBackendsPrivateRegistry proves a custom backend plugs in through
// Config.Backends and receives OPENs for its scheme, without touching the
// shared default registry.
func TestConfigBackendsPrivateRegistry(t *testing.T) {
	e := newEnv()
	e.store.Set("jagan", "toy.dat", gns.Mapping{Scheme: "toy"})
	toy := &toyBackend{scheme: "toy", content: []byte("served by the toy backend")}
	reg := NewRegistry()
	registerBuiltins(reg)
	reg.MustRegister(toy)
	e.v.Run(func() {
		fm := e.fm(t, "jagan", func(c *Config) { c.Backends = reg })
		f, err := fm.Open("toy.dat")
		if err != nil {
			t.Fatalf("open via custom backend: %v", err)
		}
		got, _ := io.ReadAll(f)
		f.Close()
		if string(got) != string(toy.content) {
			t.Errorf("read %q", got)
		}
		if toy.opens != 1 {
			t.Errorf("toy backend saw %d opens", toy.opens)
		}
		if _, ok := DefaultRegistry().Lookup("toy"); ok {
			t.Error("private registration leaked into the default registry")
		}
	})
}

// TestSchemeOverridesMode pins the dispatch rule: an explicit Mapping.Scheme
// wins over the mode-derived scheme, and the FM records the override as an
// fm.backend.select decision event.
func TestSchemeOverridesMode(t *testing.T) {
	e := newEnv()
	// The mode says remote (mechanism 3, the FTP-style service) but the
	// scheme says object store; the object wins.
	e.store.Set("jagan", "pick.dat", gns.Mapping{
		Mode: gns.ModeRemote, Scheme: "objstore",
		RemoteHost: "brecca" + objPort, RemotePath: "sel/obj",
	})
	e.objs["brecca"].PutBytes("sel/obj", []byte("dispatched by scheme"))
	e.v.Run(func() {
		e.startServices(t)
		fm := e.fm(t, "jagan", nil)
		f, err := fm.Open("pick.dat")
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		got, _ := io.ReadAll(f)
		f.Close()
		if string(got) != "dispatched by scheme" {
			t.Errorf("read %q: scheme did not override mode", got)
		}
		var found bool
		for _, ev := range fm.Obs().Events() {
			if ev.Type == "fm.backend.select" && ev.Attr("scheme") == "objstore" && ev.Attr("over") == "remote" {
				found = true
			}
		}
		if !found {
			t.Error("no fm.backend.select event recorded for the override")
		}
		if got := fm.Obs().Counter(obs.Key("fm.backend.open.total", "scheme", "objstore")).Value(); got != 1 {
			t.Errorf("fm.backend.open.total{scheme=objstore} = %d", got)
		}
	})
}

func TestUnknownSchemeFailsOpen(t *testing.T) {
	e := newEnv()
	e.store.Set("jagan", "x", gns.Mapping{Scheme: "carrier-pigeon"})
	e.v.Run(func() {
		fm := e.fm(t, "jagan", nil)
		_, err := fm.Open("x")
		if err == nil || !strings.Contains(err.Error(), "no backend registered") {
			t.Errorf("open under unknown scheme: %v", err)
		}
	})
}

// TestObjstoreWaitClose pins mode-7 WaitClose coordination: the object store
// has no completion marker — an object is visible only once its PUT has
// committed, so the reader's open polls for existence and unblocks at the
// writer's Close.
func TestObjstoreWaitClose(t *testing.T) {
	e := newEnv()
	m := gns.Mapping{
		Mode: gns.ModeObject, RemoteHost: "brecca" + objPort,
		RemotePath: "wc/obj", WaitClose: true,
	}
	e.store.Set("brecca", "late.dat", m)
	e.store.Set("vpac27", "late.dat", m)
	e.v.Run(func() {
		e.startServices(t)
		e.v.Go("late-writer", func() {
			e.v.Sleep(2 * time.Second)
			fm := e.fm(t, "brecca", nil)
			w, err := fm.Create("late.dat")
			if err != nil {
				t.Errorf("create: %v", err)
				return
			}
			w.Write([]byte("eventually"))
			if err := w.Close(); err != nil {
				t.Errorf("close: %v", err)
			}
		})
		fm := e.fm(t, "vpac27", nil)
		f, err := fm.Open("late.dat") // blocks until the PUT commits
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		got, _ := io.ReadAll(f)
		f.Close()
		if string(got) != "eventually" {
			t.Errorf("read %q", got)
		}
	})
}

// TestObjstoreReplaceInvalidatesCache pins that a mode-7 re-PUT through the
// same FM drops the object's cached blocks: a reader opening after the
// replace sees the new body, never a stale cache hit from the old one.
func TestObjstoreReplaceInvalidatesCache(t *testing.T) {
	e := newEnv()
	e.store.Set("jagan", "v.dat", gns.Mapping{
		Mode: gns.ModeObject, RemoteHost: "jagan" + objPort, RemotePath: "v/obj",
	})
	e.v.Run(func() {
		e.startServices(t)
		fm := e.fm(t, "jagan", func(c *Config) { c.BlockCacheBytes = 4 << 20 })
		write := func(body string) {
			w, err := fm.Create("v.dat")
			if err != nil {
				t.Fatalf("create: %v", err)
			}
			w.Write([]byte(body))
			if err := w.Close(); err != nil {
				t.Fatalf("close: %v", err)
			}
		}
		read := func() string {
			f, err := fm.Open("v.dat")
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			b, _ := io.ReadAll(f)
			f.Close()
			return string(b)
		}
		write("first body")
		if got := read(); got != "first body" {
			t.Fatalf("first read %q", got)
		}
		write("second body, longer than the first")
		if got := read(); got != "second body, longer than the first" {
			t.Errorf("read after replace %q: stale cached blocks served", got)
		}
	})
}
