package core

import (
	"errors"
	"testing"

	"griddles/internal/vfs"
)

// The commit/discard coherence hook: once Interrupt reports an error, the
// FM refuses every new OPEN and Stat — the speculation loser's cut-off.
func TestInterruptRefusesOpens(t *testing.T) {
	e := newEnv()
	errLost := errors.New("attempt lost the commit race")
	var lost bool
	e.v.Run(func() {
		e.startServices(t)
		fm := e.fm(t, "jagan", func(c *Config) {
			c.Hooks.Interrupt = func() error {
				if lost {
					return errLost
				}
				return nil
			}
		})
		if err := vfs.WriteFile(e.grid.Machine("jagan").RawFS(), "in.dat", []byte("x")); err != nil {
			t.Fatal(err)
		}

		// Before the interrupt fires, IO proceeds normally.
		f, err := fm.Open("in.dat")
		if err != nil {
			t.Fatalf("open before interrupt: %v", err)
		}
		f.Close()

		lost = true
		if _, err := fm.Open("in.dat"); !errors.Is(err, errLost) {
			t.Errorf("open after interrupt = %v, want %v", err, errLost)
		}
		if _, err := fm.Create("out.dat"); !errors.Is(err, errLost) {
			t.Errorf("create after interrupt = %v, want %v", err, errLost)
		}
		if _, _, err := fm.Stat("in.dat"); !errors.Is(err, errLost) {
			t.Errorf("stat after interrupt = %v, want %v", err, errLost)
		}
		// An open handle from before the cut-off keeps working — only new
		// opens are refused (the loser drains, it is not torn down).
		if snap := fm.Obs().Snapshot().Counters; snap["fm.interrupt.total"] != 3 {
			t.Errorf("fm.interrupt.total = %d, want 3", snap["fm.interrupt.total"])
		}
	})
}
