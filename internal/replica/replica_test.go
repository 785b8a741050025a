package replica

import (
	"testing"
	"testing/quick"
	"time"

	"griddles/internal/nws"
)

func loc(host, path string) Location {
	return Location{Host: host, Addr: host + ":6000", Path: path}
}

func TestCatalogRegisterLookup(t *testing.T) {
	c := NewCatalog()
	c.Register("terrain", loc("dione", "/d/terrain"))
	c.Register("terrain", loc("freak", "/f/terrain"))
	c.Register("terrain", loc("dione", "/d/terrain")) // duplicate ignored
	locs := c.Lookup("terrain")
	if len(locs) != 2 {
		t.Fatalf("lookup = %v", locs)
	}
	if len(c.Lookup("absent")) != 0 {
		t.Error("lookup of absent logical returned replicas")
	}
}

func TestCatalogUnregister(t *testing.T) {
	c := NewCatalog()
	a, b := loc("a", "/x"), loc("b", "/x")
	c.Register("d", a)
	c.Register("d", b)
	c.Unregister("d", a)
	locs := c.Lookup("d")
	if len(locs) != 1 || locs[0] != b {
		t.Errorf("after unregister: %v", locs)
	}
	c.Unregister("d", b)
	if len(c.entries) != 0 {
		t.Error("empty entry not removed")
	}
}

func TestCatalogLookupIsCopy(t *testing.T) {
	c := NewCatalog()
	c.Register("d", loc("a", "/x"))
	got := c.Lookup("d")
	got[0].Host = "mutated"
	if c.Lookup("d")[0].Host != "a" {
		t.Error("catalogue state mutated through Lookup result")
	}
}

func TestSelectorPrefersLocal(t *testing.T) {
	s := &Selector{}
	locs := []Location{loc("far", "/x"), loc("here", "/x")}
	got, err := s.Choose("here", 1000, locs)
	if err != nil || got.Host != "here" {
		t.Errorf("choose = %+v err=%v", got, err)
	}
}

func TestSelectorUsesNWSForecasts(t *testing.T) {
	svc := nws.NewService()
	now := time.Unix(0, 0)
	// fast: 1ms latency, 10 MB/s. slow: 300ms latency, 100 KB/s.
	svc.Record("fast", "me", nws.MetricLatency, now, 0.001)
	svc.Record("fast", "me", nws.MetricBandwidth, now, 10e6)
	svc.Record("slow", "me", nws.MetricLatency, now, 0.3)
	svc.Record("slow", "me", nws.MetricBandwidth, now, 100e3)
	s := &Selector{NWS: svc}
	locs := []Location{loc("slow", "/x"), loc("fast", "/x")}
	got, _ := s.Choose("me", 1<<20, locs)
	if got.Host != "fast" {
		t.Errorf("choose = %+v, want fast replica", got)
	}
	ranked := s.Rank("me", 1<<20, locs)
	if !ranked[0].Known || ranked[0].Cost >= ranked[1].Cost {
		t.Errorf("rank = %+v", ranked)
	}
}

func TestSelectorUnknownLinksRankLast(t *testing.T) {
	svc := nws.NewService()
	svc.Record("known", "me", nws.MetricLatency, time.Unix(0, 0), 0.5)
	s := &Selector{NWS: svc}
	locs := []Location{loc("ghost1", "/x"), loc("known", "/x"), loc("ghost2", "/x")}
	ranked := s.Rank("me", 100, locs)
	if ranked[0].Location.Host != "known" {
		t.Errorf("measured replica not first: %+v", ranked)
	}
	// Unmeasured replicas keep catalogue order.
	if ranked[1].Location.Host != "ghost1" || ranked[2].Location.Host != "ghost2" {
		t.Errorf("unknown replicas reordered: %+v", ranked)
	}
}

func TestChooseEmptyFails(t *testing.T) {
	s := &Selector{}
	if _, err := s.Choose("me", 1, nil); err == nil {
		t.Error("choose on empty replica set succeeded")
	}
}

// Property: Rank returns a permutation of its input, locals first.
func TestRankPermutationProperty(t *testing.T) {
	f := func(hostsRaw []uint8) bool {
		hosts := []string{"me", "a", "b", "c"}
		locs := make([]Location, 0, len(hostsRaw))
		for i, h := range hostsRaw {
			if i >= 12 {
				break
			}
			locs = append(locs, Location{Host: hosts[int(h)%len(hosts)], Path: string(rune('p' + i))})
		}
		s := &Selector{}
		ranked := s.Rank("me", 100, locs)
		if len(ranked) != len(locs) {
			return false
		}
		seen := make(map[Location]int)
		for _, l := range locs {
			seen[l]++
		}
		localDone := false
		for _, r := range ranked {
			seen[r.Location]--
			if r.Location.Host != "me" {
				localDone = true
			} else if localDone {
				return false // a local replica after a remote one
			}
		}
		for _, n := range seen {
			if n != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}
