// Package gridbuffer implements the paper's Grid Buffer service (§3.1, §4):
// the direct writer-to-reader coupling behind IO mechanism 6.
//
// A buffer is a hash table of fixed-size blocks (the paper stores data "in a
// hash table rather than a sequential buffer" to allow random operations).
// Writers Put blocks; readers Get blocks and block until the data has been
// written — this is what turns a file-coupled pipeline into an overlapped
// one. Consumed blocks are deleted from the table; if the cache file is
// enabled, they are spilled to it first, so a reader can seek backward and
// re-read an already-consumed stream (the paper's DARLAM re-read,
// Figure 3). A bounded table capacity gives reader-paced backpressure: a
// slow downstream model drags its upstream writer, the effect visible in the
// paper's Table 5 high-latency rows.
//
// Broadcast mode (one writer, several readers) keeps a block until every
// expected reader has consumed it.
//
// The hash table is sharded (power-of-two shards, per-shard lock), so
// concurrent writers and broadcast readers on different blocks do not
// contend on one lock; stream-wide state (capacity, EOF, attach registry)
// lives behind a separate small lock, and block payloads are recycled
// through a sync.Pool the Registry shares between buffers of one block size.
package gridbuffer

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"griddles/internal/obs"
	"griddles/internal/simclock"
	"griddles/internal/vfs"
)

// DefaultCapacity is the default bound on resident blocks: 8192 blocks =
// 32 MiB at the paper's 4096-byte blocks — enough to hold a whole coupling
// stream in memory, as the paper's in-memory hash table evidently did (its
// Table 5 shows C-CAM finishing unimpeded while cc2lam drags behind a slow
// WAN reader).
const DefaultCapacity = 8192

// DefaultBlockSize matches the paper's typical write size.
const DefaultBlockSize = 4096

// DefaultShards is the default shard count of the block table. Sixteen
// per-shard locks are plenty for the fan-outs a single coupling sees; the
// count is clamped to a power of two so the shard of a block index is one
// mask away.
const DefaultShards = 16

// Options configures one named buffer. Writer and readers must agree on
// BlockSize (the GNS mapping carries it to both sides).
type Options struct {
	// BlockSize in bytes; 0 selects DefaultBlockSize.
	BlockSize int
	// Capacity is the maximum number of resident blocks; 0 selects
	// DefaultCapacity. Writers stall when the table is full of unconsumed
	// blocks.
	Capacity int
	// Cache spills consumed blocks to a cache file so readers can seek
	// backward and re-read (requires CacheFS).
	Cache     bool
	CacheFS   vfs.FS
	CachePath string
	// Readers is the number of readers expected to consume each block
	// (broadcast); 0 means 1.
	Readers int
	// Shards is the block-table shard count, rounded up to a power of two;
	// 0 selects DefaultShards.
	Shards int
}

func (o Options) blockSize() int {
	if o.BlockSize <= 0 {
		return DefaultBlockSize
	}
	return o.BlockSize
}

func (o Options) capacity() int {
	if o.Capacity <= 0 {
		return DefaultCapacity
	}
	return o.Capacity
}

func (o Options) readers() int {
	if o.Readers <= 0 {
		return 1
	}
	return o.Readers
}

func (o Options) shards() int {
	n := o.Shards
	if n <= 0 {
		n = DefaultShards
	}
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// ErrStopped is returned by blocked operations when the buffer is dropped.
var ErrStopped = errors.New("gridbuffer: buffer dropped")

// shard is one slice of the block table: the blocks whose index hashes here,
// plus their broadcast-consumption bookkeeping. The shard lock is
// clock-aware because it is held across simulated disk IO when a consumed
// block spills to the cache file.
type shard struct {
	mu    *simclock.Mutex
	rcond simclock.Cond // readers wait for blocks of this shard / EOF

	blocks   map[int64][]byte
	consumed map[int64]map[int]bool // blockIdx -> readerIDs that have read it
	dead     map[int64]bool         // fully consumed and dropped without a cache copy
	inCache  map[int64]bool
}

// bufInstruments is the swappable set of cached obs instruments (discard
// until SetObserver), published atomically so hot paths load one pointer.
type bufInstruments struct {
	puts       *obs.Counter
	gets       *obs.Counter
	spills     *obs.Counter
	cacheReads *obs.Counter
	putStall   *obs.Histogram
	readWait   *obs.Histogram
	resident   *obs.Gauge
	fanout     *obs.Gauge
	shardCount *obs.Gauge
	contended  *obs.Counter
	names      []string // every instrument's labelled name, for Registry.Drop
}

// Buffer is one named writer/reader rendezvous.
type Buffer struct {
	clock simclock.Clock
	opts  Options
	key   string

	mask   int64
	shards []shard
	pool   *sync.Pool // block payloads, capacity == blockSize; shared per Registry

	// smu guards the stream-wide state: capacity accounting, EOF, the
	// attach registry and the stop flag. Lock order is shard.mu -> smu ->
	// cmu; smu is never taken before a shard lock is released by the same
	// path that then takes one.
	smu      *simclock.Mutex
	wcond    simclock.Cond // writers wait for capacity
	resident int           // blocks charged against Capacity
	eof      bool
	total    int64 // total byte length, valid once eof
	stopped  bool

	nextReader int
	attached   map[int]bool

	// ackedTo is each reader's AckBelow watermark: every block below it that
	// was resident at the time has been marked consumed by that reader, so
	// the next AckBelow walks only the new range. late lists, per reader, the
	// blocks inserted below its watermark since (a forward seek skipped them);
	// the next AckBelow marks those too. maxAcked is the highest watermark,
	// the one compare a Put pays to learn it is not late.
	ackedTo  map[int]int64
	late     map[int][]int64
	maxAcked atomic.Int64

	// cmu serializes the shared cache file (taken after a shard lock).
	cmu       *simclock.Mutex
	cacheFile vfs.File

	ins atomic.Pointer[bufInstruments]
}

// NewBuffer returns an empty buffer with the given key and options.
func NewBuffer(clock simclock.Clock, key string, opts Options) *Buffer {
	n := opts.shards()
	b := &Buffer{
		clock:    clock,
		opts:     opts,
		key:      key,
		mask:     int64(n - 1),
		shards:   make([]shard, n),
		attached: make(map[int]bool),
		ackedTo:  make(map[int]int64),
		late:     make(map[int][]int64),
		pool:     newBlockPool(opts.blockSize()),
	}
	for i := range b.shards {
		s := &b.shards[i]
		s.mu = simclock.NewMutex(clock)
		s.rcond = clock.NewCond(s.mu)
		s.blocks = make(map[int64][]byte)
		s.consumed = make(map[int64]map[int]bool)
		s.dead = make(map[int64]bool)
		s.inCache = make(map[int64]bool)
	}
	b.smu = simclock.NewMutex(clock)
	b.wcond = clock.NewCond(b.smu)
	b.cmu = simclock.NewMutex(clock)
	b.SetObserver(nil)
	return b
}

// SetObserver routes the buffer's metrics to o; nil discards them. Metrics
// carry the buffer key as a label, so concurrent couplings stay separable.
func (b *Buffer) SetObserver(o *obs.Observer) {
	var names []string
	kv := func(name string) string {
		name = obs.Key(name, "key", b.key)
		names = append(names, name)
		return name
	}
	ins := &bufInstruments{
		puts:       o.Counter(kv("gb.put.total")),
		gets:       o.Counter(kv("gb.get.total")),
		spills:     o.Counter(kv("gb.spill.total")),
		cacheReads: o.Counter(kv("gb.cache.read.total")),
		putStall:   o.Histogram(kv("gb.put.stall_ms")),
		readWait:   o.Histogram(kv("gb.read.wait_ms")),
		resident:   o.Gauge(kv("gb.resident.blocks")),
		fanout:     o.Gauge(kv("gb.readers.attached")),
		shardCount: o.Gauge(kv("buf.shard.count")),
		contended:  o.Counter(kv("buf.shard.contended.total")),
	}
	ins.names = names
	ins.shardCount.Set(int64(len(b.shards)))
	b.ins.Store(ins)
}

// Key reports the buffer's global name.
func (b *Buffer) Key() string { return b.key }

// BlockSize reports the negotiated block size.
func (b *Buffer) BlockSize() int { return b.opts.blockSize() }

// Shards reports the block-table shard count (for tests and metrics).
func (b *Buffer) Shards() int { return len(b.shards) }

func (b *Buffer) shard(idx int64) *shard { return &b.shards[idx&b.mask] }

// lockShard acquires s.mu, counting the acquisition as contended when it
// could not be taken immediately.
func (b *Buffer) lockShard(s *shard) {
	if s.mu.TryLock() {
		return
	}
	b.ins.Load().contended.Inc()
	s.mu.Lock()
}

// newBlockPool returns a pool of payloads of capacity bs.
func newBlockPool(bs int) *sync.Pool {
	return &sync.Pool{New: func() any { return make([]byte, bs) }}
}

// copyIn copies data into a pooled payload (capacity == blockSize).
func (b *Buffer) copyIn(data []byte) []byte {
	buf := b.pool.Get().([]byte)
	if cap(buf) < len(data) {
		buf = make([]byte, len(data))
	}
	buf = buf[:len(data)]
	copy(buf, data)
	return buf
}

// Recycle returns a payload obtained from Get/GetKeep to the block pool.
// Optional: callers that keep the slice simply let the GC have it.
func (b *Buffer) Recycle(p []byte) {
	if cap(p) >= b.opts.blockSize() {
		b.pool.Put(p[:cap(p)])
	}
}

// streamState reads the stream-wide flags consistently.
func (b *Buffer) streamState() (stopped, eof bool, total int64) {
	b.smu.Lock()
	stopped, eof, total = b.stopped, b.eof, b.total
	b.smu.Unlock()
	return
}

// Attach registers a reader and returns its ID.
func (b *Buffer) Attach() int {
	return b.Reattach(-1)
}

// Reattach re-registers a reader after a transport reconnect. When prev is
// still attached the same ID is returned, so a broadcast buffer does not
// count the reconnected reader as a second consumer (a fresh ghost ID would
// inflate the expected fan-out and strand blocks). prev < 0, or a prev that
// already detached, falls back to a fresh Attach.
func (b *Buffer) Reattach(prev int) int {
	b.smu.Lock()
	defer b.smu.Unlock()
	if prev >= 0 && b.attached[prev] {
		return prev
	}
	id := b.nextReader
	b.nextReader++
	b.attached[id] = true
	b.ins.Load().fanout.Set(int64(len(b.attached)))
	return id
}

// Detach unregisters a reader. Blocks it had not consumed become consumable
// by the remaining expectation (they are treated as consumed by id).
func (b *Buffer) Detach(id int) {
	b.smu.Lock()
	if !b.attached[id] {
		b.smu.Unlock()
		return
	}
	delete(b.attached, id)
	delete(b.ackedTo, id)
	delete(b.late, id)
	b.ins.Load().fanout.Set(int64(len(b.attached)))
	b.smu.Unlock()
	for i := range b.shards {
		s := &b.shards[i]
		b.lockShard(s)
		for idx := range s.blocks {
			b.markConsumedLocked(s, idx, id)
		}
		s.mu.Unlock()
	}
}

// reserveSlot charges one block against Capacity, stalling while the table
// is full of unconsumed blocks. onStall (may be nil) runs once, without the
// lock, before the first wait.
func (b *Buffer) reserveSlot(onStall func()) error {
	ins := b.ins.Load()
	b.smu.Lock()
	defer b.smu.Unlock()
	stalled := false
	entered := b.clock.Now()
	for {
		if b.stopped {
			return ErrStopped
		}
		if b.eof {
			return errors.New("gridbuffer: put after close-write")
		}
		if b.resident < b.opts.capacity() {
			break
		}
		if !stalled && onStall != nil {
			stalled = true
			b.smu.Unlock()
			onStall()
			b.smu.Lock()
			continue
		}
		stalled = true
		b.wcond.Wait()
	}
	if stalled {
		ins.putStall.ObserveDuration(b.clock.Now().Sub(entered))
	}
	b.resident++
	ins.resident.Set(int64(b.resident))
	return nil
}

// releaseSlot returns one capacity slot and wakes stalled writers.
func (b *Buffer) releaseSlot() {
	b.smu.Lock()
	b.resident--
	b.ins.Load().resident.Set(int64(b.resident))
	b.wcond.Broadcast()
	b.smu.Unlock()
}

// Put stores data as block idx, stalling while the table is at capacity
// with unconsumed blocks. Overwriting a resident block never stalls.
func (b *Buffer) Put(idx int64, data []byte) error { return b.put(idx, data, nil) }

// put is Put with a hook the server uses to flush the acknowledgements it is
// holding before this put stalls on capacity: the writer must not wait for
// acks that sit behind a put which is itself waiting for the reader.
func (b *Buffer) put(idx int64, data []byte, onStall func()) error {
	if idx < 0 {
		return fmt.Errorf("gridbuffer: negative block index %d", idx)
	}
	b.ins.Load().puts.Inc()
	s := b.shard(idx)
	b.lockShard(s)
	if s.dead[idx] || s.inCache[idx] {
		// Every expected reader already consumed this block: the put is a
		// replay of a delivery whose acknowledgement was lost. Accepting it
		// idempotently (rather than parking it forever in the table) is what
		// makes writer-side replay after reconnect safe.
		s.mu.Unlock()
		return nil
	}
	stopped, eof, _ := b.streamState()
	if stopped {
		s.mu.Unlock()
		return ErrStopped
	}
	if eof {
		s.mu.Unlock()
		return errors.New("gridbuffer: put after close-write")
	}
	if old, resident := s.blocks[idx]; resident {
		s.blocks[idx] = b.copyIn(data)
		b.Recycle(old)
		s.rcond.Broadcast()
		s.mu.Unlock()
		return nil
	}
	s.mu.Unlock()

	if err := b.reserveSlot(onStall); err != nil {
		return err
	}
	b.lockShard(s)
	if s.dead[idx] || s.inCache[idx] {
		s.mu.Unlock()
		b.releaseSlot()
		return nil
	}
	if old, resident := s.blocks[idx]; resident {
		// A racing replay beat us to the slot; overwrite in place.
		s.blocks[idx] = b.copyIn(data)
		b.Recycle(old)
		s.rcond.Broadcast()
		s.mu.Unlock()
		b.releaseSlot()
		return nil
	}
	s.blocks[idx] = b.copyIn(data)
	if idx < b.maxAcked.Load() {
		b.noteLate(idx)
	}
	s.rcond.Broadcast()
	s.mu.Unlock()
	return nil
}

// noteLate queues a block inserted below some reader's watermark for that
// reader's next AckBelow. The caller holds the shard lock of idx, which
// orders this against an AckBelow walk: the walk either finds the block
// resident or had published its watermark before the insert.
func (b *Buffer) noteLate(idx int64) {
	b.smu.Lock()
	for id, mark := range b.ackedTo {
		if idx < mark {
			b.late[id] = append(b.late[id], idx)
		}
	}
	b.smu.Unlock()
}

// CloseWrite marks end-of-stream with the total byte length. A repeat with
// the same total is an idempotent no-op (a writer re-sending close after a
// lost acknowledgement); a conflicting total is an error.
func (b *Buffer) CloseWrite(totalBytes int64) error {
	b.smu.Lock()
	if b.eof {
		same := b.total == totalBytes
		b.smu.Unlock()
		if same {
			return nil
		}
		return errors.New("gridbuffer: duplicate close-write")
	}
	b.eof = true
	b.total = totalBytes
	b.wcond.Broadcast() // stalled writers must fail with put-after-close
	b.smu.Unlock()
	b.broadcastShards()
	return nil
}

// broadcastShards wakes every waiting reader, taking each shard lock so a
// reader between its predicate check and its wait cannot miss the wakeup.
func (b *Buffer) broadcastShards() {
	for i := range b.shards {
		s := &b.shards[i]
		s.mu.Lock()
		s.rcond.Broadcast()
		s.mu.Unlock()
	}
}

// EOF reports whether the writer has closed, and the total length if so.
func (b *Buffer) EOF() (bool, int64) {
	b.smu.Lock()
	defer b.smu.Unlock()
	return b.eof, b.total
}

// blockLen reports the valid length of block idx given the stream state.
func (b *Buffer) blockLen(idx int64, eof bool, total int64) int {
	bs := int64(b.opts.blockSize())
	if !eof {
		return int(bs)
	}
	start := idx * bs
	if start >= total {
		return 0
	}
	if start+bs > total {
		return int(total - start)
	}
	return int(bs)
}

// Get returns the contents of block idx for reader id, blocking until the
// block has been written. It returns (nil, true, nil) when idx is at or past
// end-of-stream. Reading a block the reader already consumed is served from
// the resident table or the cache file.
func (b *Buffer) Get(id int, idx int64) (data []byte, eof bool, err error) {
	return b.get(id, idx, true)
}

// GetKeep is Get without the consume: the block stays resident (charged
// against capacity) until the reader acknowledges it via AckBelow. The
// resilient binary transport uses this pair so a delivery lost on the wire
// can be re-requested after reconnect.
func (b *Buffer) GetKeep(id int, idx int64) (data []byte, eof bool, err error) {
	return b.get(id, idx, false)
}

// AckBelow marks every resident block with index < upto as consumed by
// reader id (spilling to the cache file as usual), freeing capacity for the
// writer. A reader acknowledges on every request, so the walk covers only
// the range above the reader's previous watermark, plus any block inserted
// below that watermark since.
func (b *Buffer) AckBelow(id int, upto int64) {
	b.smu.Lock()
	from := b.ackedTo[id]
	if upto > from {
		b.ackedTo[id] = upto
		if upto > b.maxAcked.Load() {
			b.maxAcked.Store(upto)
		}
	}
	var late []int64
	if pending := b.late[id]; len(pending) > 0 {
		keep := pending[:0]
		for _, idx := range pending {
			if idx < upto {
				late = append(late, idx)
			} else {
				keep = append(keep, idx)
			}
		}
		b.late[id] = keep
	}
	resident := int64(b.resident)
	b.smu.Unlock()

	if upto-from > resident {
		// A seek far ahead: visiting the resident blocks is cheaper than
		// walking the index range (and covers the late ones too).
		for i := range b.shards {
			s := &b.shards[i]
			b.lockShard(s)
			for idx := range s.blocks {
				if idx < upto {
					b.markConsumedLocked(s, idx, id)
				}
			}
			s.mu.Unlock()
		}
		return
	}
	for _, idx := range late {
		b.ackOne(id, idx)
	}
	for idx := from; idx < upto; idx++ {
		b.ackOne(id, idx)
	}
}

// ackOne marks block idx consumed by reader id if it is resident.
func (b *Buffer) ackOne(id int, idx int64) {
	s := b.shard(idx)
	b.lockShard(s)
	if _, ok := s.blocks[idx]; ok {
		b.markConsumedLocked(s, idx, id)
	}
	s.mu.Unlock()
}

// Ready reports whether a Get of block idx would return without waiting for
// the writer: the block is resident or cached, or the stream has ended or
// been dropped. The server asks before each blocking read so it can flush
// the responses it is holding first.
func (b *Buffer) Ready(idx int64) bool {
	s := b.shard(idx)
	b.lockShard(s)
	_, ok := s.blocks[idx]
	ok = ok || s.inCache[idx]
	s.mu.Unlock()
	if ok {
		return true
	}
	stopped, eof, _ := b.streamState()
	return stopped || eof
}

func (b *Buffer) get(id int, idx int64, consume bool) (data []byte, eof bool, err error) {
	if idx < 0 {
		return nil, false, fmt.Errorf("gridbuffer: negative block index %d", idx)
	}
	ins := b.ins.Load()
	ins.gets.Inc()
	s := b.shard(idx)
	b.lockShard(s)
	defer s.mu.Unlock()
	waited := false
	entered := b.clock.Now()
	observeWait := func() {
		if waited {
			ins.readWait.ObserveDuration(b.clock.Now().Sub(entered))
		}
	}
	for {
		stopped, seof, total := b.streamState()
		if stopped {
			return nil, false, ErrStopped
		}
		if data, ok := s.blocks[idx]; ok {
			observeWait()
			out := data
			if n := b.blockLen(idx, seof, total); n < len(out) {
				out = out[:n]
			}
			cp := b.copyIn(out)
			if consume {
				b.markConsumedLocked(s, idx, id)
			}
			return cp, false, nil
		}
		if s.inCache[idx] {
			observeWait()
			return b.readCache(idx, seof, total)
		}
		if seof {
			bs := int64(b.opts.blockSize())
			if idx*bs >= total {
				observeWait()
				return nil, true, nil
			}
			// The block existed but was dropped without a cache: the reader
			// attached too late or sought backward without cache enabled.
			return nil, false, fmt.Errorf("gridbuffer: block %d of %q no longer available (enable the cache file for re-reads)", idx, b.key)
		}
		waited = true
		s.rcond.Wait()
	}
}

// markConsumedLocked records that id has read idx and drops the block once
// every expected reader has it (spilling to the cache file first). The
// caller holds the shard lock of idx.
func (b *Buffer) markConsumedLocked(s *shard, idx int64, id int) {
	set := s.consumed[idx]
	if set == nil {
		set = make(map[int]bool)
		s.consumed[idx] = set
	}
	if set[id] {
		return
	}
	set[id] = true
	if len(set) < b.opts.readers() {
		return
	}
	data, ok := s.blocks[idx]
	if !ok {
		return
	}
	if b.opts.Cache {
		b.spill(s, idx, data)
	}
	delete(s.blocks, idx)
	if !s.inCache[idx] {
		s.dead[idx] = true
	}
	delete(s.consumed, idx)
	b.Recycle(data)
	b.releaseSlot()
}

func (b *Buffer) cachePath() string {
	if b.opts.CachePath != "" {
		return b.opts.CachePath
	}
	return ".gridbuffer-cache/" + b.key
}

// spill writes idx to the cache file; the caller holds the shard lock.
func (b *Buffer) spill(s *shard, idx int64, data []byte) {
	if b.opts.CacheFS == nil {
		return
	}
	b.cmu.Lock()
	defer b.cmu.Unlock()
	if b.cacheFile == nil {
		f, err := b.opts.CacheFS.OpenFile(b.cachePath(), vfs.ReadWriteFlag, 0o644)
		if err != nil {
			return // cache is best-effort; re-reads will fail loudly instead
		}
		b.cacheFile = f
	}
	if _, err := b.cacheFile.WriteAt(data, idx*int64(b.opts.blockSize())); err == nil {
		s.inCache[idx] = true
		b.ins.Load().spills.Inc()
	}
}

func (b *Buffer) readCache(idx int64, eof bool, total int64) ([]byte, bool, error) {
	b.cmu.Lock()
	defer b.cmu.Unlock()
	if b.cacheFile == nil {
		return nil, false, fmt.Errorf("gridbuffer: cache file missing for %q", b.key)
	}
	b.ins.Load().cacheReads.Inc()
	n := b.blockLen(idx, eof, total)
	buf := make([]byte, n)
	got, err := b.cacheFile.ReadAt(buf, idx*int64(b.opts.blockSize()))
	if err != nil && got < n {
		return nil, false, fmt.Errorf("gridbuffer: cache read of block %d: %w", idx, err)
	}
	return buf[:got], false, nil
}

// Resident reports the number of blocks currently in the hash table.
func (b *Buffer) Resident() int {
	b.smu.Lock()
	defer b.smu.Unlock()
	return b.resident
}

// Drop aborts the buffer: all blocked operations return ErrStopped, the
// cache file is closed and the resident payloads go back to the block pool
// for the next stream.
func (b *Buffer) Drop() {
	b.smu.Lock()
	if b.stopped {
		b.smu.Unlock()
		return
	}
	b.stopped = true
	b.wcond.Broadcast()
	b.smu.Unlock()
	b.cmu.Lock()
	if b.cacheFile != nil {
		b.cacheFile.Close()
		b.cacheFile = nil
	}
	b.cmu.Unlock()
	for i := range b.shards {
		s := &b.shards[i]
		s.mu.Lock()
		for idx, data := range s.blocks {
			b.Recycle(data)
			delete(s.blocks, idx)
		}
		s.rcond.Broadcast()
		s.mu.Unlock()
	}
}
