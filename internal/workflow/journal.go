package workflow

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"sync"

	"griddles/internal/obs"
	"griddles/internal/simclock"
	"griddles/internal/wire"
)

// The coordinator journal: an append-only, CRC-framed log of scheduler
// transitions, in the stateio/logio style. Each record is framed as
//
//	u32 payload length | u32 CRC-32 (IEEE) of the payload | payload
//
// and the payload is a kind byte followed by wire-encoded fields. A run
// starts with a header record carrying the workflow's spec hash; stage
// state changes, eager-copy activity and speculation decisions follow; a
// snapshot record of the full per-stage state vector is interleaved every
// SnapshotEvery state records so replay cost is O(tail), not O(history).
//
// Durability contract: a record is recoverable only once the sink's Sync
// has returned. Replay treats any trailing bytes that do not form a whole,
// CRC-clean frame as a torn tail — the crash happened mid-append — and
// stops cleanly there; a torn or corrupt record is never applied. Corrupt
// bytes *before* the last sync horizon (a flipped bit under the CRC, an
// impossible stage index) are a hard replay error instead: that is storage
// damage, not a crash artifact.

// Journal record kinds.
const (
	recHeader   = 1
	recState    = 2
	recEager    = 3
	recSpec     = 4
	recSnapshot = 5
)

// journalFormat is the on-disk format version written in header records.
const journalFormat = 1

// Stage states as journaled and replayed (RunImage.States). The scheduler's
// in-memory lifecycle maps onto these; failed is journal-only (the
// in-memory scheduler folds failures into done + error).
const (
	StagePending uint8 = iota
	StageReady
	StageRunning
	StageDone
	StageFailed
)

// Eager-copy journal ops (the PR 5 eager stage-in lifecycle).
const (
	EagerLaunch uint8 = iota + 1
	EagerAdopt
	EagerDiscard
)

// Speculation journal ops.
const (
	SpecLaunch uint8 = iota + 1
	SpecWin
	SpecLose
)

// MaxStages bounds the per-run stage count a journal may declare; it
// protects replay from allocating for an absurd header in a damaged file.
const MaxStages = 1 << 20

// Sink is where the journal appends. *os.File satisfies it; MemSink is the
// in-memory test double with crash semantics.
type Sink interface {
	Write(p []byte) (int, error)
	Sync() error
}

// record is one journal entry, all kinds folded into one struct so the
// encode/decode pair round-trips every field (fuzzed by
// FuzzJournalRoundTrip).
type record struct {
	kind uint8

	// recHeader
	format   uint32
	workflow string
	specHash [32]byte
	nstages  uint32
	coupling uint8

	// recState / recSpec
	stage   uint32
	state   uint8
	attempt uint32

	// recEager / recSpec
	op      uint8
	machine string
	path    string

	// recSnapshot
	states []uint8

	// all kinds: virtual-clock timestamp
	nanos int64
}

// encode appends the record payload (kind byte first) to e.
func (rec *record) encode(e *wire.Encoder) {
	e.U8(rec.kind)
	e.I64(rec.nanos)
	switch rec.kind {
	case recHeader:
		e.U32(rec.format)
		e.String(rec.workflow)
		e.Bytes32(rec.specHash[:])
		e.U32(rec.nstages)
		e.U8(rec.coupling)
	case recState:
		e.U32(rec.stage)
		e.U8(rec.state)
		e.U32(rec.attempt)
	case recEager:
		e.U8(rec.op)
		e.String(rec.machine)
		e.String(rec.path)
	case recSpec:
		e.U8(rec.op)
		e.U32(rec.stage)
		e.U32(rec.attempt)
		e.String(rec.machine)
	case recSnapshot:
		e.Bytes32(rec.states)
	}
}

// decodeRecord reads one record payload.
func decodeRecord(payload []byte) (record, error) {
	d := wire.NewDecoder(payload)
	var rec record
	rec.kind = d.U8()
	rec.nanos = d.I64()
	switch rec.kind {
	case recHeader:
		rec.format = d.U32()
		rec.workflow = d.String()
		h := d.Bytes32()
		if d.Err() == nil && len(h) != len(rec.specHash) {
			return rec, fmt.Errorf("workflow: journal header hash is %d bytes, want %d", len(h), len(rec.specHash))
		}
		copy(rec.specHash[:], h)
		rec.nstages = d.U32()
		rec.coupling = d.U8()
	case recState:
		rec.stage = d.U32()
		rec.state = d.U8()
		rec.attempt = d.U32()
	case recEager:
		rec.op = d.U8()
		rec.machine = d.String()
		rec.path = d.String()
	case recSpec:
		rec.op = d.U8()
		rec.stage = d.U32()
		rec.attempt = d.U32()
		rec.machine = d.String()
	case recSnapshot:
		rec.states = append([]uint8(nil), d.Bytes32()...)
	default:
		return rec, fmt.Errorf("workflow: unknown journal record kind %d", rec.kind)
	}
	if err := d.Err(); err != nil {
		return rec, err
	}
	if d.Remaining() != 0 {
		return rec, fmt.Errorf("workflow: %d trailing bytes in journal record", d.Remaining())
	}
	return rec, nil
}

// Journal is the append side. All methods are nil-receiver safe, so the
// scheduler journals unconditionally and a nil Runner.Journal costs nothing.
type Journal struct {
	// SyncEvery syncs the sink every N appends (default 1: every record is
	// durable before the scheduler acts on it). Larger values trade a
	// bounded replay gap for fewer syncs.
	SyncEvery int
	// SnapshotEvery interleaves a full state-vector snapshot every N state
	// records (default 64).
	SnapshotEvery int

	clock simclock.Clock
	obs   *obs.Observer
	kill  *KillSwitch

	mu        sync.Mutex
	sink      Sink
	err       error
	disabled  bool
	pending   int // appends since last sync
	sinceSnap int // state records since last snapshot
}

// NewJournal returns a Journal appending to sink.
func NewJournal(sink Sink, clock simclock.Clock) *Journal {
	return &Journal{clock: clock, sink: sink}
}

// SetObserver routes wf.journal.* metrics to o.
func (j *Journal) SetObserver(o *obs.Observer) {
	if j == nil {
		return
	}
	j.obs = o
}

// Err reports the first sink failure, if any.
func (j *Journal) Err() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// Header appends the run header. Called once per coordinator session —
// both a fresh Run and a Resume append one, so a journal file reads as a
// sequence of sessions over one run.
func (j *Journal) Header(workflow string, specHash [32]byte, nstages int, coupling Coupling) {
	if j == nil {
		return
	}
	j.append(&record{
		kind: recHeader, format: journalFormat, workflow: workflow,
		specHash: specHash, nstages: uint32(nstages), coupling: uint8(coupling),
	}, true)
}

// State appends a stage state transition and reports whether a snapshot is
// due (the scheduler answers by calling Snapshot with its state vector —
// it owns the vector, the journal only paces the cadence).
func (j *Journal) State(stage int, state uint8, attempt int) bool {
	if j == nil {
		return false
	}
	j.append(&record{kind: recState, stage: uint32(stage), state: state, attempt: uint32(attempt)},
		state == StageDone || state == StageFailed)
	j.mu.Lock()
	defer j.mu.Unlock()
	j.sinceSnap++
	return !j.disabled && j.err == nil && j.sinceSnap >= j.snapshotEvery()
}

// Eager appends an eager-copy lifecycle record.
func (j *Journal) Eager(op uint8, machine, path string) {
	if j == nil {
		return
	}
	j.append(&record{kind: recEager, op: op, machine: machine, path: path}, false)
	if op == EagerLaunch {
		j.killAt(KillEagerCopy)
	}
}

// Spec appends a speculation lifecycle record.
func (j *Journal) Spec(op uint8, stage, attempt int, machine string) {
	if j == nil {
		return
	}
	j.append(&record{kind: recSpec, op: op, stage: uint32(stage), attempt: uint32(attempt), machine: machine}, true)
	if op == SpecLaunch {
		j.killAt(KillSpeculation)
	}
}

// Snapshot appends a full state-vector snapshot and resets the cadence.
func (j *Journal) Snapshot(states []uint8) {
	if j == nil {
		return
	}
	j.append(&record{kind: recSnapshot, states: states}, true)
	j.mu.Lock()
	j.sinceSnap = 0
	j.mu.Unlock()
	if j.obs != nil {
		j.obs.Counter("wf.journal.snapshot.total").Inc()
	}
}

func (j *Journal) snapshotEvery() int {
	if j.SnapshotEvery > 0 {
		return j.SnapshotEvery
	}
	return 64
}

func (j *Journal) syncEvery() int {
	if j.SyncEvery > 0 {
		return j.SyncEvery
	}
	return 1
}

// append frames and writes one record. A record that must be recoverable
// before the scheduler proceeds (header, done/failed, speculation commit)
// passes barrier=true and forces a sync regardless of SyncEvery — unless
// the pre-sync kill point fires first, which is exactly the crash window
// the chaos matrix pins: the record is in the buffer, not on disk.
func (j *Journal) append(rec *record, barrier bool) {
	rec.nanos = j.clock.Now().UnixNano()
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.disabled || j.err != nil {
		return
	}
	e := wire.NewEncoder()
	rec.encode(e)
	payload := e.Bytes()
	var hdr [8]byte
	binary.BigEndian.PutUint32(hdr[:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(hdr[4:], crc32.ChecksumIEEE(payload))
	if _, err := j.sink.Write(hdr[:]); err != nil {
		j.err = err
		return
	}
	if _, err := j.sink.Write(payload); err != nil {
		j.err = err
		return
	}
	j.pending++
	if j.obs != nil {
		j.obs.Counter("wf.journal.append.total").Inc()
		j.obs.Counter("wf.journal.bytes").Add(int64(len(payload)) + 8)
	}
	if j.kill.at(KillRecord) {
		j.disabled = true
		return
	}
	if rec.kind == recState && (rec.state == StageDone || rec.state == StageFailed) && j.kill.at(KillPreSync) {
		// The crash window between a stage finishing and its done record
		// reaching the disk: the resumed coordinator must re-dispatch it.
		j.disabled = true
		return
	}
	if barrier || j.pending >= j.syncEvery() {
		if err := j.sink.Sync(); err != nil {
			j.err = err
			return
		}
		j.pending = 0
		if j.obs != nil {
			j.obs.Counter("wf.journal.sync.total").Inc()
		}
	}
}

// killAt forwards a named kill point check and disables the journal when it
// fires ("the coordinator died": nothing is appended afterwards).
func (j *Journal) killAt(point string) {
	if j == nil || !j.kill.at(point) {
		return
	}
	j.mu.Lock()
	j.disabled = true
	j.mu.Unlock()
}

// disable stops all further appends (used when a kill point fires outside
// the journal, e.g. after a dispatch).
func (j *Journal) disable() {
	if j == nil {
		return
	}
	j.mu.Lock()
	j.disabled = true
	j.mu.Unlock()
}

// SpecHash fingerprints the schedule-relevant shape of a workflow: name,
// coupling, and each component's name, machine, work hint and file edges.
// Resume refuses a journal whose header hash differs — replaying stage
// indices against a different DAG would corrupt the run.
func SpecHash(spec *Spec, coupling Coupling) [32]byte {
	e := wire.NewEncoder()
	e.String(spec.Name).U8(uint8(coupling)).U32(uint32(len(spec.Components)))
	for _, c := range spec.Components {
		e.String(c.Name).String(c.Machine)
		e.U64(math.Float64bits(c.WorkHint))
		e.StringSlice(c.Inputs)
		e.StringSlice(c.Outputs)
	}
	return sha256.Sum256(e.Bytes())
}

// RunImage is the state a journal replay reconstructs: what the crashed
// coordinator provably knew.
type RunImage struct {
	Workflow string
	SpecHash [32]byte
	Coupling Coupling
	NStages  int
	// States holds each stage's last journaled state (Stage* constants).
	States []uint8
	// Home maps a stage to the machine whose outputs won its speculation
	// race, when that differs from the component's configured machine.
	Home map[int]string
	// Records is how many whole records were applied; Torn reports whether
	// replay stopped at an incomplete trailing frame (a crash mid-append).
	Records int
	Torn    bool
	// CleanLen is the byte length of the clean record prefix — everything
	// before the torn tail. A resuming coordinator must truncate the
	// journal file to CleanLen before appending its own session, or the
	// torn fragment would mask every later record from the next replay.
	CleanLen int
}

// Done counts stages the image proves complete.
func (img *RunImage) Done() int {
	n := 0
	for _, st := range img.States {
		if st == StageDone {
			n++
		}
	}
	return n
}

// ErrNoHeader is returned by Replay when the journal holds no complete
// header record — there is nothing to resume.
var ErrNoHeader = errors.New("workflow: journal has no header record")

// Replay scans journal bytes and reconstructs the run image. A torn tail —
// trailing bytes that do not form a whole CRC-clean frame — ends the scan
// cleanly with Torn set; it is the expected shape of a crash mid-append.
// Structural impossibilities inside CRC-clean records (a stage index past
// the header's count, conflicting headers) are hard errors: that is a
// damaged or mismatched file, not a crash artifact.
func Replay(data []byte) (*RunImage, error) {
	var img *RunImage
	off := 0
	for {
		if len(data)-off < 8 {
			if len(data) != off && img != nil {
				img.Torn = true
			}
			break
		}
		n := int(binary.BigEndian.Uint32(data[off : off+4]))
		sum := binary.BigEndian.Uint32(data[off+4 : off+8])
		if n > wire.MaxFrame || len(data)-off-8 < n {
			// An impossible length or a frame cut short: torn tail.
			if img != nil {
				img.Torn = true
			}
			break
		}
		payload := data[off+8 : off+8+n]
		if crc32.ChecksumIEEE(payload) != sum {
			if img != nil {
				img.Torn = true
			}
			break
		}
		rec, err := decodeRecord(payload)
		if err != nil {
			// CRC-clean but undecodable: treat as the torn tail too — a
			// truncated write can end exactly at a stale frame boundary.
			if img != nil {
				img.Torn = true
			}
			break
		}
		off += 8 + n
		if img == nil {
			if rec.kind != recHeader {
				return nil, fmt.Errorf("workflow: journal starts with record kind %d, not a header", rec.kind)
			}
			if rec.format != journalFormat {
				return nil, fmt.Errorf("workflow: journal format %d, this build reads %d", rec.format, journalFormat)
			}
			if rec.nstages > MaxStages {
				return nil, fmt.Errorf("workflow: journal header declares %d stages (max %d)", rec.nstages, MaxStages)
			}
			img = &RunImage{
				Workflow: rec.workflow,
				SpecHash: rec.specHash,
				Coupling: Coupling(rec.coupling),
				NStages:  int(rec.nstages),
				States:   make([]uint8, rec.nstages),
				Home:     make(map[int]string),
				Records:  1,
			}
			continue
		}
		img.Records++
		switch rec.kind {
		case recHeader:
			// A later session's header: must describe the same run.
			if rec.workflow != img.Workflow || rec.specHash != img.SpecHash || int(rec.nstages) != img.NStages {
				return nil, errors.New("workflow: journal holds headers for different runs")
			}
		case recState:
			if int(rec.stage) >= img.NStages {
				return nil, fmt.Errorf("workflow: journal state record for stage %d of %d", rec.stage, img.NStages)
			}
			if rec.state > StageFailed {
				return nil, fmt.Errorf("workflow: journal state record with unknown state %d", rec.state)
			}
			img.States[rec.stage] = rec.state
		case recSpec:
			if int(rec.stage) >= img.NStages {
				return nil, fmt.Errorf("workflow: journal speculation record for stage %d of %d", rec.stage, img.NStages)
			}
			if rec.op == SpecWin {
				img.Home[int(rec.stage)] = rec.machine
			}
		case recSnapshot:
			if len(rec.states) != img.NStages {
				return nil, fmt.Errorf("workflow: journal snapshot covers %d stages of %d", len(rec.states), img.NStages)
			}
			for _, st := range rec.states {
				if st > StageFailed {
					return nil, fmt.Errorf("workflow: journal snapshot with unknown state %d", st)
				}
			}
			copy(img.States, rec.states)
		case recEager:
			// Informational: eager copies are re-derived on resume.
		}
	}
	if img == nil {
		return nil, ErrNoHeader
	}
	img.CleanLen = off
	return img, nil
}

// MemSink is an in-memory Sink with crash semantics for tests: Write lands
// in a buffer, Sync moves the buffer to the persisted prefix, and Crash
// models the machine dying — unsynced bytes are lost, except for an
// arbitrary prefix that "made it to disk" as a torn tail.
type MemSink struct {
	mu        sync.Mutex
	persisted []byte
	buffered  []byte
}

// Write implements Sink.
func (s *MemSink) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.buffered = append(s.buffered, p...)
	return len(p), nil
}

// Sync implements Sink.
func (s *MemSink) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.persisted = append(s.persisted, s.buffered...)
	s.buffered = nil
	return nil
}

// Bytes reports the synced (recoverable) prefix.
func (s *MemSink) Bytes() []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]byte(nil), s.persisted...)
}

// Buffered reports how many written bytes have not been synced.
func (s *MemSink) Buffered() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.buffered)
}

// Crash returns what a restarted coordinator would read back: the synced
// bytes plus at most tear bytes of the unsynced buffer (clamped), and
// drops the rest. tear = 0 is a clean crash at the sync horizon.
func (s *MemSink) Crash(tear int) []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	if tear < 0 {
		tear = 0
	}
	if tear > len(s.buffered) {
		tear = len(s.buffered)
	}
	s.persisted = append(s.persisted, s.buffered[:tear]...)
	s.buffered = nil
	return append([]byte(nil), s.persisted...)
}

// Truncate cuts the persisted bytes to n and discards the buffer — what a
// resuming coordinator does with a journal file's torn tail (RunImage.
// CleanLen) before appending its own session, via os.File.Truncate there.
func (s *MemSink) Truncate(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n < 0 {
		n = 0
	}
	if n < len(s.persisted) {
		s.persisted = s.persisted[:n]
	}
	s.buffered = nil
}

// Named coordinator kill points (KillSwitch.Point).
const (
	// KillDispatch kills after the After-th stage dispatch: the coordinator
	// dies with stages mid-run on the grid.
	KillDispatch = "dispatch"
	// KillPreSync kills between appending a stage's done/failed record and
	// syncing it: the stage finished, the journal never learned.
	KillPreSync = "pre-sync"
	// KillEagerCopy kills right after an eager stage-in copy launches.
	KillEagerCopy = "eager-copy"
	// KillSpeculation kills right after a speculative attempt launches.
	KillSpeculation = "speculation"
	// KillRecord kills after the After-th journal append of any kind — the
	// seeded random-crash-point axis.
	KillRecord = "record"
)

// KillSwitch is the chaos harness's coordinator crash: when the named
// point's After-th occurrence is reached, the coordinator stops dispatching
// and journaling. In-flight stage bodies and transfers drain — a dead
// DAGman does not kill jobs already running on remote machines — and Run
// returns ErrCoordinatorKilled.
type KillSwitch struct {
	// Point names the crash site (Kill* constants).
	Point string
	// After fires the switch on the After-th occurrence of Point (0 and 1
	// both mean the first).
	After int

	mu     sync.Mutex
	seen   int
	killed bool
}

// at records one occurrence of point and reports whether the switch fires
// now. Nil-receiver safe.
func (k *KillSwitch) at(point string) bool {
	if k == nil || point != k.Point {
		return false
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	if k.killed {
		return false
	}
	k.seen++
	after := k.After
	if after < 1 {
		after = 1
	}
	if k.seen >= after {
		k.killed = true
		return true
	}
	return false
}

// Killed reports whether the switch has fired.
func (k *KillSwitch) Killed() bool {
	if k == nil {
		return false
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.killed
}

// ErrCoordinatorKilled is returned by Run when a KillSwitch fired: the
// coordinator stopped; the journal (if any) is what survives.
var ErrCoordinatorKilled = errors.New("workflow: coordinator killed")
