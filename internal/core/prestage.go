package core

import "griddles/internal/gns"

// Prestager lets an external scheduler hand the FM files it has already
// staged (or is still staging) toward this machine — the workflow engine's
// eager stage-in. A mode-2 read open consults it before paying the
// open-time CopyIn.
type Prestager interface {
	// Claim adopts the eager copy of (machine, path), if one exists. The
	// mapping is the one this open resolved; implementations must compare
	// it against the mapping the copy was started under and refuse the
	// claim after a GNS remap — stale bytes are worse than a re-copy. Claim
	// may block (clock-aware) until an in-flight copy settles. It returns
	// the staged byte count and whether the copy is adopted; on false the
	// FM falls back to the ordinary stage-in, which truncates whatever a
	// failed eager copy left behind.
	Claim(machine, path string, mapping gns.Mapping) (int64, bool)
}
