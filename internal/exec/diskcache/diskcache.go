// Package diskcache is the executor's persistent second cache tier: a
// content-addressed store of completed runs that survives the process,
// so a CLI invocation or CI job replays a campaign another process
// already measured instead of re-simulating it from cold.
//
// Layout: a cache directory holds append-only segment files, one per
// writing process — concurrent processes never share a file descriptor,
// so no cross-process locking is needed. The write path emits binary v3
// segments (runs-*.seg): a header of the magic "DUFPSEG3", the format
// version and the physics-version stamp, followed by length-prefixed
// frames
//
//	<uvarint body length> <crc32c, 4 bytes LE> <body>
//
// whose bodies are the wirebin column encoding (internal/wirebin) of the
// run's content address and the run itself. The reader scans segments
// sequentially into a reused frame buffer and decodes through a string
// interner, so the warm path performs no per-record allocations beyond
// the index entries themselves. Segments of any other format are inert.
//
// Records are validated on load: CRC mismatches and undecodable bodies
// (including the torn last frame of a crashed writer) are skipped and
// counted as corrupt — framing recovers at the next frame where the
// lengths allow, otherwise the file's valid prefix is kept. Records
// written under a different physics version are skipped and counted as
// stale, which is how the harness invalidates the cache when the
// simulator's results change — bump the stamp, old files become inert.
//
// Writes are write-behind: Put updates the in-memory index immediately
// and queues the record for a background writer; Close drains the queue,
// flushes, and fsyncs the segment when the handle wrote records to it. A
// handle that wrote none removes its segment without an fsync, so a
// read-only replay pays no disk flush. The queue holds only pending
// records, at most maxPending of them. Floats travel as raw IEEE 754
// bits, so a disk-served run is bit-identical to a fresh one.
package diskcache

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"dufp/internal/metrics"
	"dufp/internal/wirebin"
)

// formatVersion is the segment-layout version the cache reads and
// writes: length-prefixed binary frames in the wirebin column encoding.
// The JSONL segments of versions 1 and 2 (runs-*.jsonl) are inert.
const formatVersion = 3

// segMagic opens every binary segment file.
const segMagic = "DUFPSEG3"

// maxFrame bounds one frame's body: a length prefix beyond it marks the
// segment corrupt rather than asking for an absurd buffer.
const maxFrame = 1 << 20

// maxPending bounds the write-behind queue: the records Put accepted
// that the writer has not yet written. Past it Put drops the record and
// counts it.
const maxPending = 4096

// Key is the content address of one run, mirroring the executor's ID.
type Key struct {
	App, Governor, Session string
	Idx                    int
}

// Sum returns the key's 64-bit FNV-1a fingerprint over all identity
// fields: the number RunID spells and the ID index is keyed by.
func Sum(k Key) uint64 {
	h := fnv.New64a()
	io.WriteString(h, k.App)
	h.Write([]byte{0})
	io.WriteString(h, k.Governor)
	h.Write([]byte{0})
	io.WriteString(h, k.Session)
	var idx [8]byte
	for i := 0; i < 8; i++ {
		idx[i] = byte(k.Idx >> (8 * i))
	}
	h.Write(idx[:])
	return h.Sum64()
}

// RunID returns the key's stable identifier: Sum as 16 lower-case hex
// digits. It is what the Run API exposes as a run ID, so a result
// persisted by one daemon can be looked up by ID in another process
// holding the same cache directory.
func RunID(k Key) string { return fmt.Sprintf("%016x", Sum(k)) }

// parseRunID inverts RunID. Only the spelling RunID produces parses —
// exactly 16 lower-case hex digits — so an ID spelled any other way
// names no record and misses.
func parseRunID(id string) (uint64, bool) {
	if len(id) != 16 {
		return 0, false
	}
	var sum uint64
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		default:
			return 0, false
		}
		sum = sum<<4 | uint64(c)
	}
	return sum, true
}

// record is one queued write: the run and its content address. The
// physics stamp travels in the segment header, not per record.
type record struct {
	Key Key
	Run metrics.Run
}

// Stats are the cache's counters since Open.
type Stats struct {
	// Hits and Misses count Get lookups.
	Hits, Misses int64
	// Loaded counts valid records read from the directory at Open.
	Corrupt, Stale, Loaded int64
	// Written counts records persisted by this process; Dropped counts
	// Put records discarded because the write-behind queue was full.
	Written, Dropped int64
}

// Option configures Open.
type Option func(*Cache)

// WithWriteObserver registers a hook receiving the wall-clock seconds of
// each record write (the executor feeds exec_disk_write_seconds from it).
func WithWriteObserver(fn func(seconds float64)) Option {
	return func(c *Cache) { c.writeObs = fn }
}

// Cache is one process's handle on a cache directory. All methods are
// safe for concurrent use.
type Cache struct {
	dir      string
	version  string
	writeObs func(float64)

	mu  sync.RWMutex
	mem map[Key]metrics.Run
	// byID indexes mem by Sum. It is built on the first GetByID, under
	// the write lock, and kept current by Put from then on, so a process
	// that never looks a run up by ID never hashes a key.
	byID    map[uint64]Key
	closed  bool
	warning string

	hits, misses           atomic.Int64
	corrupt, stale, loaded atomic.Int64
	written, dropped       atomic.Int64

	// qmu guards queue and pending. Put takes it under mu, so a record
	// is queued before Close can mark the cache closed.
	qmu     sync.Mutex
	queue   []record // accepted, not yet taken by the writer
	pending int      // accepted, not yet written: at most maxPending
	// wake tells the writer that queue holds records; one buffered
	// signal covers any number of Puts since the writer last looked.
	wake chan struct{}
	done chan struct{}
	wg   sync.WaitGroup

	f *os.File
	w *bufio.Writer
	// buf is the writer goroutine's reused frame-encoding buffer.
	buf []byte
}

// crcTable is the Castagnoli polynomial, hardware-accelerated on the
// targets this harness runs on.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Open loads the cache directory's valid records into memory and starts
// the write-behind writer on a fresh segment file. An unreadable or
// unwritable directory does not fail Open: the cache degrades to
// whatever it could do (read-only, or memory-only), and Warning reports
// why — mirroring the executor's contract that a cache must never take
// the harness down.
func Open(dir, version string, opts ...Option) (*Cache, error) {
	if dir == "" {
		return nil, fmt.Errorf("diskcache: empty directory")
	}
	c := &Cache{
		dir:     dir,
		version: version,
		mem:     make(map[Key]metrics.Run),
		wake:    make(chan struct{}, 1),
		done:    make(chan struct{}),
	}
	for _, opt := range opts {
		opt(c)
	}

	if err := os.MkdirAll(dir, 0o755); err != nil {
		c.warning = fmt.Sprintf("diskcache: %s not creatable, running memory-only: %v", dir, err)
		return c, nil
	}
	c.load()

	f, err := os.CreateTemp(dir, "runs-*.seg")
	if err != nil {
		c.warning = fmt.Sprintf("diskcache: %s not writable, running read-only: %v", dir, err)
		return c, nil
	}
	c.f = f
	c.w = bufio.NewWriter(f)
	// Segment header: magic, format version, physics stamp. Written
	// before the writer goroutine exists, so unsynchronised.
	hdr := []byte(segMagic)
	hdr = binary.AppendUvarint(hdr, formatVersion)
	hdr = wirebin.AppendString(hdr, version)
	if _, err := c.w.Write(hdr); err != nil {
		c.warning = fmt.Sprintf("diskcache: %s not writable, running read-only: %v", dir, err)
		c.f, c.w = nil, nil
		f.Close()
		os.Remove(f.Name())
		return c, nil
	}
	c.wg.Add(1)
	go c.writer()
	return c, nil
}

// load scans every segment file in the directory, keeping valid
// same-version records and counting corrupt and stale ones. The scan
// state (frame buffer, decode reader, string interner) is shared across
// files, so the warm path allocates per distinct string, not per record.
func (c *Cache) load() {
	segs, err := filepath.Glob(filepath.Join(c.dir, "runs-*.seg"))
	if err != nil {
		return
	}
	sc := newSegScanner(segs)
	for i, path := range segs {
		sc.file(c, path, sc.sizes[i])
	}
}

// index adds a run to the in-memory index. The caller holds mu for
// writing, or owns c as Open does.
func (c *Cache) index(key Key, run metrics.Run) {
	c.mem[key] = run
	if c.byID != nil {
		c.byID[Sum(key)] = key
	}
}

// Get returns the cached run for the key, if any.
func (c *Cache) Get(key Key) (metrics.Run, bool) {
	c.mu.RLock()
	run, ok := c.mem[key]
	c.mu.RUnlock()
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return run, ok
}

// GetByID returns the cached run whose RunID matches id, along with its
// content address. It is the lookup behind the Run API's /v1/runs/<id>
// after a daemon restart: results persisted under an ID survive even
// when the in-memory job registry did not.
func (c *Cache) GetByID(id string) (Key, metrics.Run, bool) {
	var key Key
	var run metrics.Run
	sum, ok := parseRunID(id)
	if ok {
		c.mu.RLock()
		built := c.byID != nil
		if built {
			key, run, ok = c.lookupID(sum)
		}
		c.mu.RUnlock()
		if !built {
			c.mu.Lock()
			if c.byID == nil {
				c.byID = make(map[uint64]Key, len(c.mem))
				for k := range c.mem {
					c.byID[Sum(k)] = k
				}
			}
			key, run, ok = c.lookupID(sum)
			c.mu.Unlock()
		}
	}
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return key, run, ok
}

// lookupID resolves a Sum through byID; the caller holds mu.
func (c *Cache) lookupID(sum uint64) (Key, metrics.Run, bool) {
	key, ok := c.byID[sum]
	if !ok {
		return Key{}, metrics.Run{}, false
	}
	run, ok := c.mem[key]
	return key, run, ok
}

// Put stores the run under the key: the in-memory index is updated
// immediately, and the record is queued for the background writer. Put
// never blocks — if the queue is full the record is dropped (and
// counted); the cache stays correct, just less warm. Duplicate keys are
// written once.
func (c *Cache) Put(key Key, run metrics.Run) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.mem[key]; dup {
		return
	}
	if c.closed || c.w == nil {
		if c.warning != "" {
			// Memory-only operation still serves later Gets this process.
			c.index(key, run)
		}
		return
	}
	c.index(key, run)
	c.qmu.Lock()
	queued := c.pending < maxPending
	if queued {
		c.queue = append(c.queue, record{Key: key, Run: run})
		c.pending++
	}
	c.qmu.Unlock()
	if !queued {
		c.dropped.Add(1)
		return
	}
	select {
	case c.wake <- struct{}{}:
	default: // a wake-up is already pending
	}
}

// writer is the write-behind goroutine: it appends queued records until
// Close signals, then drains what is left.
func (c *Cache) writer() {
	defer c.wg.Done()
	var batch []record
	for {
		select {
		case <-c.wake:
			batch = c.writeQueued(batch)
		case <-c.done:
			// Close marks the cache closed before it signals, and Put
			// queues only while it is open, so one pass drains the queue.
			c.writeQueued(batch)
			return
		}
	}
}

// writeQueued takes every queued record and appends them in Put order.
// The queue and the writer trade backing arrays, so it returns the
// emptied batch for the next call.
func (c *Cache) writeQueued(batch []record) []record {
	c.qmu.Lock()
	batch, c.queue = c.queue, batch[:0]
	c.qmu.Unlock()
	for _, rec := range batch {
		c.append(rec)
	}
	c.qmu.Lock()
	c.pending -= len(batch)
	c.qmu.Unlock()
	return batch
}

// append serialises one record onto the segment file as a v3 frame,
// reusing the encode buffer across calls.
func (c *Cache) append(rec record) {
	start := time.Now()
	body := encodeFrameBody(c.buf[:0], rec.Key, rec.Run)
	c.buf = body
	var pre [binary.MaxVarintLen64 + 4]byte
	n := binary.PutUvarint(pre[:], uint64(len(body)))
	binary.LittleEndian.PutUint32(pre[n:], crc32.Checksum(body, crcTable))
	c.w.Write(pre[:n+4])
	c.w.Write(body)
	c.written.Add(1)
	if c.writeObs != nil {
		c.writeObs(time.Since(start).Seconds())
	}
}

// encodeFrameBody appends the wirebin columns of one record: the content
// address (app, governor, session, index) followed by the run.
func encodeFrameBody(b []byte, key Key, run metrics.Run) []byte {
	b = wirebin.AppendString(b, key.App)
	b = wirebin.AppendString(b, key.Governor)
	b = wirebin.AppendString(b, key.Session)
	b = wirebin.AppendInt64(b, int64(key.Idx))
	return wirebin.AppendRun(b, run)
}

// Close drains the write-behind queue, flushes the segment file and
// fsyncs it when this handle wrote records to it. A segment that holds
// no record is removed instead, without the fsync. The cache remains
// readable (memory-only) afterwards.
func (c *Cache) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	if c.f == nil {
		return nil
	}
	close(c.done)
	c.wg.Wait()
	wrote := c.written.Load() > 0
	var firstErr error
	if err := c.w.Flush(); err != nil {
		firstErr = err
	}
	if wrote {
		if err := c.f.Sync(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if err := c.f.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	if !wrote && firstErr == nil {
		// Nothing persisted: drop the empty segment so read-mostly
		// invocations do not litter the directory.
		os.Remove(c.f.Name())
	}
	return firstErr
}

// Warning reports why the cache degraded (unwritable directory), or "".
func (c *Cache) Warning() string { return c.warning }

// ReadOnly reports whether this handle persists nothing (degraded mode).
func (c *Cache) ReadOnly() bool { return c.f == nil }

// Len returns the number of runs in the in-memory index.
func (c *Cache) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.mem)
}

// Stats returns a snapshot of the cache's counters.
func (c *Cache) Stats() Stats {
	return Stats{
		Hits:    c.hits.Load(),
		Misses:  c.misses.Load(),
		Corrupt: c.corrupt.Load(),
		Stale:   c.stale.Load(),
		Loaded:  c.loaded.Load(),
		Written: c.written.Load(),
		Dropped: c.dropped.Load(),
	}
}
