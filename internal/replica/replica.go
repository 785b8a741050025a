// Package replica implements the replica catalogue and selection heuristics
// GriddLeS plans around the Globus Replica Catalogue / SRB (paper §3.1): a
// logical dataset name maps to several physical copies on different
// machines, and the File Multiplexer picks the copy that is cheapest to
// reach given Network Weather Service forecasts. Because the choice is made
// per OPEN — and can be re-made mid-run for read-only files — a workflow
// adapts to changing network conditions with no application change.
package replica

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"griddles/internal/nws"
	"griddles/internal/obs"
)

// Location is one physical copy of a dataset.
type Location struct {
	// Host is the machine holding the copy (an NWS endpoint name).
	Host string
	// Addr is the file service ("gridftp") address serving the copy.
	Addr string
	// Path is the file path on that service.
	Path string
}

// Catalog maps logical names to their replicas. It is safe for concurrent
// use.
type Catalog struct {
	mu      sync.Mutex
	entries map[string][]Location
}

// NewCatalog returns an empty Catalog.
func NewCatalog() *Catalog {
	return &Catalog{entries: make(map[string][]Location)}
}

// Register adds a replica for logical, ignoring exact duplicates.
func (c *Catalog) Register(logical string, loc Location) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, l := range c.entries[logical] {
		if l == loc {
			return
		}
	}
	c.entries[logical] = append(c.entries[logical], loc)
}

// Unregister removes a replica; removing the last one removes the entry.
func (c *Catalog) Unregister(logical string, loc Location) {
	c.mu.Lock()
	defer c.mu.Unlock()
	locs := c.entries[logical]
	for i, l := range locs {
		if l == loc {
			locs = append(locs[:i], locs[i+1:]...)
			break
		}
	}
	if len(locs) == 0 {
		delete(c.entries, logical)
	} else {
		c.entries[logical] = locs
	}
}

// Lookup reports the replicas of logical (a copy; callers may not mutate
// catalogue state through it).
func (c *Catalog) Lookup(logical string) []Location {
	c.mu.Lock()
	defer c.mu.Unlock()
	locs := c.entries[logical]
	out := make([]Location, len(locs))
	copy(out, locs)
	return out
}

// Selector ranks replicas by estimated access cost.
type Selector struct {
	// NWS supplies transfer estimates; nil falls back to static order.
	NWS *nws.Service
	// Obs, if set, receives a "replica.select" decision record per Choose —
	// every candidate with its forecast cost next to the winner, so replica
	// choices are debuggable after the fact (cf. "Replica Selection in the
	// Globus Data Grid").
	Obs *obs.Observer
}

// Ranked is a replica with its estimated transfer cost.
type Ranked struct {
	Location Location
	// Cost is the estimated transfer time; Known is false when the NWS had
	// no data for the link (such replicas rank after measured ones).
	Cost  time.Duration
	Known bool
	// Local marks a replica on the requesting machine itself.
	Local bool
	// Bandwidth is the forecast link bandwidth in bytes/s toward the
	// requester, 0 when the NWS had no bandwidth data. The stripe planner
	// uses it to size per-replica ranges; it does not affect ordering.
	Bandwidth float64
}

// Rank orders the replicas of a dataset by access cost from machine `from`
// for a transfer of size bytes: local copies first, then measured links by
// ascending forecast cost, then unmeasured links in catalogue order.
func (s *Selector) Rank(from string, size int64, locs []Location) []Ranked {
	ranked := make([]Ranked, 0, len(locs))
	for _, loc := range locs {
		r := Ranked{Location: loc, Local: loc.Host == from}
		if s.NWS != nil && !r.Local {
			if d, ok := s.NWS.EstimateTransfer(loc.Host, from, size); ok {
				r.Cost, r.Known = d, true
			}
			if bw, ok := s.NWS.EstimateBandwidth(loc.Host, from); ok {
				r.Bandwidth = bw
			}
		}
		if r.Local {
			r.Cost, r.Known = 0, true
		}
		ranked = append(ranked, r)
	}
	sort.SliceStable(ranked, func(i, j int) bool {
		a, b := ranked[i], ranked[j]
		if a.Local != b.Local {
			return a.Local
		}
		if a.Known != b.Known {
			return a.Known
		}
		if a.Known && b.Known {
			return a.Cost < b.Cost
		}
		return false // both unknown: keep catalogue order
	})
	return ranked
}

// Choose picks the best replica per Rank and emits the decision record.
func (s *Selector) Choose(from string, size int64, locs []Location) (Location, error) {
	if len(locs) == 0 {
		return Location{}, fmt.Errorf("replica: no replicas available")
	}
	ranked := s.Rank(from, size, locs)
	chosen := ranked[0]
	if s.Obs != nil {
		s.Obs.Counter("replica.select.total").Inc()
		s.Obs.Emit("replica.select", from,
			obs.KV("host", chosen.Location.Host),
			obs.KV("addr", chosen.Location.Addr),
			obs.KV("size", size),
			obs.KV("cost_known", chosen.Known),
			obs.KV("cost_ms", chosen.Cost),
			obs.KV("candidates", rankedSummary(ranked)))
	}
	return chosen.Location, nil
}

// rankedSummary renders a ranking as "host=cost|host=?" for decision
// records (? marks links the NWS had no data for).
func rankedSummary(ranked []Ranked) string {
	parts := make([]string, len(ranked))
	for i, r := range ranked {
		if r.Known {
			parts[i] = fmt.Sprintf("%s=%s", r.Location.Host, r.Cost.Round(time.Millisecond))
		} else {
			parts[i] = r.Location.Host + "=?"
		}
	}
	return strings.Join(parts, "|")
}

// Lookuper is the read interface the File Multiplexer needs.
type Lookuper interface {
	Lookup(logical string) ([]Location, error)
}

// CatalogLookuper adapts Catalog's infallible Lookup to Lookuper.
type CatalogLookuper struct{ *Catalog }

// Lookup implements Lookuper.
func (c CatalogLookuper) Lookup(logical string) ([]Location, error) {
	return c.Catalog.Lookup(logical), nil
}
