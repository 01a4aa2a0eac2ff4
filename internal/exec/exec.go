// Package exec is the harness's shared run scheduler: a bounded worker
// pool that deduplicates in-flight runs (singleflight-style coalescing),
// memoises completed ones in a bounded LRU keyed by content address, and
// reports structured progress through an observer hook.
//
// The scheduler is sharded: the in-flight map and the memo LRU are split
// into power-of-two segments addressed by a hash of the run's content
// address, each behind its own mutex, and the statistics are plain
// atomics — so concurrent submissions of distinct keys never serialise
// on a single lock. An optional persistent second tier (see the
// diskcache sub-package) survives the process: memo misses consult it
// before executing, and completed runs are written behind.
//
// Every harness entry point — the Session facade, the experiment grid and
// sweeps, and the CLIs — submits work here, so two tables requesting the
// same baseline summary share one computation. Runs are deterministic
// functions of their Key (the simulator is seeded end to end), which is
// what makes memoisation sound: a cached Run is bit-identical to a fresh
// one.
package exec

import (
	"context"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"dufp/internal/exec/diskcache"
	"dufp/internal/metrics"
	"dufp/internal/obs"
	"dufp/internal/obs/span"
)

// Key content-addresses one run: the application (name plus structure
// hash), the governor (id plus configuration fingerprint), the session
// configuration fingerprint and the run index. Two keys with equal
// identity fields denote the same computation.
type Key struct {
	// App is the application fingerprint.
	App string
	// Governor is the governor id + configuration fingerprint.
	Governor string
	// Session is the session configuration fingerprint.
	Session string
	// Idx is the run index (selects the run's deterministic seeds).
	Idx int

	// Payload carries the materialised inputs the runner needs to execute
	// the key (application definition, governor constructor, session). It
	// is NOT part of the key's identity: two keys with equal identity
	// fields are interchangeable regardless of payload.
	Payload any
}

// ID is the comparable content address of a Key.
type ID struct {
	App, Governor, Session string
	Idx                    int
}

// ID returns the key's content address.
func (k Key) ID() ID { return ID{App: k.App, Governor: k.Governor, Session: k.Session, Idx: k.Idx} }

func (k Key) String() string {
	return fmt.Sprintf("%s under %s [run %d]", k.App, k.Governor, k.Idx)
}

// hash returns the shard-selection hash of the content address: the
// FNV-1a sum RunID spells.
func (id ID) hash() uint64 { return diskcache.Sum(diskcache.Key(id)) }

// Runner materialises one key into a completed run. It must be safe for
// concurrent use and deterministic in the key's identity fields.
type Runner func(ctx context.Context, key Key) (metrics.Run, error)

// EventKind classifies a progress event.
type EventKind int

// Progress event kinds.
const (
	// EventStarted fires when a run acquires a worker and begins.
	EventStarted EventKind = iota
	// EventCompleted fires when a run finishes successfully.
	EventCompleted
	// EventFailed fires when a run returns an error.
	EventFailed
	// EventCached fires when a submission is served from the LRU.
	EventCached
	// EventCoalesced fires when a submission joins an in-flight run.
	EventCoalesced
	// EventDiskHit fires when a submission is served from the persistent
	// disk cache (and promoted into the LRU).
	EventDiskHit
	// EventDiskDegraded fires once at construction when the configured
	// disk cache could not be opened for writing and the executor
	// degraded to memory-only caching; Err carries the reason.
	EventDiskDegraded
)

func (k EventKind) String() string {
	switch k {
	case EventStarted:
		return "started"
	case EventCompleted:
		return "completed"
	case EventFailed:
		return "failed"
	case EventCached:
		return "cached"
	case EventCoalesced:
		return "coalesced"
	case EventDiskHit:
		return "disk"
	case EventDiskDegraded:
		return "disk-degraded"
	}
	return fmt.Sprintf("EventKind(%d)", int(k))
}

// Event is one structured progress notification.
type Event struct {
	Kind EventKind
	Key  Key
	// Wall is the run's wall-clock time (Completed and Failed only).
	Wall time.Duration
	// QueueDepth is the number of submissions accepted but not yet
	// resolved at the moment the event was emitted.
	QueueDepth int
	// Err carries the failure (Failed and DiskDegraded only).
	Err error
}

// Observer receives progress events. It may be called concurrently from
// many submissions and must not block for long.
type Observer func(Event)

// Stats aggregates the executor's counters. RunWall sums the wall-clock
// time of executed runs, so RunWall divided by the campaign's elapsed time
// approximates the achieved parallelism.
//
// Every submission resolves exactly one way, so at quiescence
//
//	Submitted == CacheHits + DiskHits + Coalesced + Started
//
// and every started computation either ran or was cancelled before its
// worker slot:
//
//	Started == Completed + Failed + Cancelled
type Stats struct {
	Submitted int64 `json:"submitted"`
	// Started counts distinct computations admitted for execution: the
	// submission led (no cache hit, no disk hit, nothing to coalesce
	// with) and entered the worker queue.
	Started   int64 `json:"started"`
	Completed int64 `json:"completed"`
	Failed    int64 `json:"failed"`
	// Cancelled counts started computations whose context was cancelled
	// before they acquired a worker; they never executed.
	Cancelled int64         `json:"cancelled"`
	CacheHits int64         `json:"cache_hits"`
	DiskHits  int64         `json:"disk_hits"`
	Coalesced int64         `json:"coalesced"`
	Evicted   int64         `json:"evicted"`
	RunWall   time.Duration `json:"run_wall_ns"`
}

// DefaultCacheSize is the completed-run LRU bound applied when
// WithCacheSize is absent or non-positive.
const DefaultCacheSize = 4096

// defaultShards is the floor on the scheduler's shard count; must be a
// power of two. The effective default scales with the worker bound —
// 4×workers, rounded up to a power of two, but never below this floor —
// so wide executors keep roughly four shards per worker and concurrent
// submissions of distinct keys rarely meet on a mutex.
const defaultShards = 16

// defaultShardsFor returns the shard count used when WithShards is
// absent or non-positive.
func defaultShardsFor(workers int) int {
	if s := 4 * workers; s > defaultShards {
		return nextPow2(s)
	}
	return defaultShards
}

// Option configures a new Executor.
type Option func(*Executor)

// WithWorkers bounds concurrent runs; n <= 0 restores the default
// (GOMAXPROCS at construction time), even if a previous option set a
// positive bound.
func WithWorkers(n int) Option {
	return func(e *Executor) { e.workers = n }
}

// WithCacheSize bounds the completed-run LRU to n entries; n <= 0
// restores the default (DefaultCacheSize), even if a previous option set
// a positive bound.
func WithCacheSize(n int) Option {
	return func(e *Executor) { e.cacheSize = n }
}

// WithShards sets the number of scheduler shards, rounded up to a power
// of two; n <= 0 restores the default. One shard reproduces the
// single-mutex scheduler and exists for contention benchmarks; real use
// keeps the default.
func WithShards(n int) Option {
	return func(e *Executor) { e.nshards = n }
}

// WithObserver registers the progress observer.
func WithObserver(fn Observer) Option {
	return func(e *Executor) { e.obs.Store(&fn) }
}

// WithRegistry directs the executor's telemetry at r instead of the
// process-wide obs.Default() registry. Tests use it to read counters in
// isolation.
func WithRegistry(r *obs.Registry) Option {
	return func(e *Executor) {
		if r != nil {
			e.registry = r
		}
	}
}

// WithDiskCache adds a persistent content-addressed run cache rooted at
// dir as a second tier behind the memo LRU (see the diskcache
// sub-package). version is the physics-version stamp: records written
// under a different stamp are treated as misses, so bumping it
// invalidates the cache without deleting files. A directory that cannot
// be opened for writing degrades the executor to memory-only caching
// and emits one EventDiskDegraded; it never fails construction.
func WithDiskCache(dir, version string) Option {
	return func(e *Executor) {
		e.diskDir, e.diskVersion = dir, version
	}
}

// execMetrics holds the executor's pre-resolved registry handles, so the
// hot path records each event with one atomic operation and no lookup.
type execMetrics struct {
	submitted, cacheHits, coalesced *obs.Counter
	started, completed, failed      *obs.Counter
	cancelled, evicted              *obs.Counter
	diskHits, diskMisses            *obs.Counter
	diskCorrupt                     *obs.Counter
	queueDepth                      *obs.Gauge
	runSeconds                      *obs.Histogram
	diskWriteSeconds                *obs.Histogram
	shardLocks                      *obs.CounterVec
}

func newExecMetrics(r *obs.Registry) *execMetrics {
	return &execMetrics{
		submitted:  r.Counter("exec_submitted_total", "run submissions accepted by the executor").With(),
		cacheHits:  r.Counter("exec_cache_hits_total", "submissions served from the completed-run LRU").With(),
		coalesced:  r.Counter("exec_coalesced_total", "submissions that joined an in-flight run").With(),
		started:    r.Counter("exec_runs_started_total", "distinct computations admitted for execution").With(),
		completed:  r.Counter("exec_runs_completed_total", "runs that finished successfully").With(),
		failed:     r.Counter("exec_runs_failed_total", "runs that returned an error").With(),
		cancelled:  r.Counter("exec_runs_cancelled_total", "admitted computations cancelled before acquiring a worker").With(),
		evicted:    r.Counter("exec_cache_evictions_total", "completed runs evicted from the LRU").With(),
		diskHits:   r.Counter("exec_disk_hits_total", "submissions served from the persistent disk cache").With(),
		diskMisses: r.Counter("exec_disk_misses_total", "disk-cache lookups that found no valid record").With(),
		diskCorrupt: r.Counter("exec_disk_corrupt_total",
			"disk-cache records skipped as corrupt (CRC or decode failure)").With(),
		queueDepth: r.Gauge("exec_queue_depth", "submissions accepted but not yet resolved").With(),
		runSeconds: r.Histogram("exec_run_seconds", "wall-clock time of executed runs", nil).With(),
		diskWriteSeconds: r.Histogram("exec_disk_write_seconds",
			"wall-clock time of persistent-cache record writes", nil).With(),
		shardLocks: r.Counter("exec_shard_lock_acquisitions_total",
			"scheduler shard-mutex acquisitions", "shard"),
	}
}

// shard is one segment of the scheduler's state: its slice of the
// in-flight map and the memo LRU, behind a private mutex. Lock
// acquisitions are counted per shard, so contention is observable.
type shard struct {
	mu       sync.Mutex
	inflight map[ID]*call
	cache    *lruCache
	locks    *obs.Counter
}

func (s *shard) lock() {
	s.mu.Lock()
	s.locks.Inc()
}

// counters is the executor's atomic statistics block; Stats() snapshots
// it. The counters are monotone, but a snapshot taken while submissions
// are in flight is not a consistent cut across fields — the documented
// identities hold at quiescence.
type counters struct {
	submitted, started, completed, failed atomic.Int64
	cancelled, cacheHits, diskHits        atomic.Int64
	coalesced, evicted                    atomic.Int64
	runWallNs                             atomic.Int64
}

// Executor schedules runs on a bounded worker pool, coalescing concurrent
// submissions of the same key and memoising completed runs in a sharded
// LRU, optionally backed by a persistent disk cache.
type Executor struct {
	run       Runner
	workers   int
	cacheSize int
	nshards   int
	// slots carries the worker-slot tokens 0..workers-1; holding token i
	// grants exclusive use of scratch[i] for the duration of one run.
	slots    chan int
	scratch  []*Scratch
	registry *obs.Registry
	metrics  *execMetrics

	shards    []*shard
	shardMask uint64
	queued    atomic.Int64
	cnt       counters
	obs       atomic.Pointer[Observer]

	diskDir, diskVersion string
	disk                 *diskcache.Cache
	diskWarn             string
}

type call struct {
	done chan struct{}
	run  metrics.Run
	err  error
}

// New builds an executor around run.
func New(run Runner, opts ...Option) *Executor {
	e := &Executor{run: run, registry: obs.Default()}
	for _, opt := range opts {
		opt(e)
	}
	if e.workers <= 0 {
		e.workers = runtime.GOMAXPROCS(0)
	}
	if e.cacheSize <= 0 {
		e.cacheSize = DefaultCacheSize
	}
	if e.nshards <= 0 {
		e.nshards = defaultShardsFor(e.workers)
	}
	e.nshards = nextPow2(e.nshards)
	e.shardMask = uint64(e.nshards - 1)
	e.slots = make(chan int, e.workers)
	e.scratch = make([]*Scratch, e.workers)
	for i := 0; i < e.workers; i++ {
		e.scratch[i] = &Scratch{slot: i}
		e.slots <- i
	}
	e.metrics = newExecMetrics(e.registry)

	// Segment capacity rounds up so the shards together hold at least
	// cacheSize entries.
	segCap := (e.cacheSize + e.nshards - 1) / e.nshards
	e.shards = make([]*shard, e.nshards)
	for i := range e.shards {
		e.shards[i] = &shard{
			inflight: make(map[ID]*call),
			cache:    newLRU(segCap),
			locks:    e.metrics.shardLocks.With(strconv.Itoa(i)),
		}
	}

	if e.diskDir != "" {
		dc, err := diskcache.Open(e.diskDir, e.diskVersion,
			diskcache.WithWriteObserver(func(seconds float64) {
				e.metrics.diskWriteSeconds.Observe(seconds)
			}))
		switch {
		case err != nil:
			e.diskWarn = fmt.Sprintf("disk cache disabled: %v", err)
			e.emit(Event{Kind: EventDiskDegraded, Err: err})
		default:
			e.disk = dc
			e.metrics.diskCorrupt.Add(float64(dc.Stats().Corrupt))
			if warn := dc.Warning(); warn != "" {
				e.diskWarn = warn
				e.emit(Event{Kind: EventDiskDegraded, Err: fmt.Errorf("%s", warn)})
			}
		}
	}
	return e
}

// nextPow2 rounds n up to the next power of two.
func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// Close flushes and fsyncs the persistent cache tier, if any. The
// executor itself holds no other resources; submitting after Close is
// allowed but no longer persists results.
func (e *Executor) Close() error {
	if e.disk != nil {
		return e.disk.Close()
	}
	return nil
}

// SetObserver replaces the progress observer (nil disables it).
func (e *Executor) SetObserver(fn Observer) { e.obs.Store(&fn) }

// Stats returns a snapshot of the executor's counters.
func (e *Executor) Stats() Stats {
	return Stats{
		Submitted: e.cnt.submitted.Load(),
		Started:   e.cnt.started.Load(),
		Completed: e.cnt.completed.Load(),
		Failed:    e.cnt.failed.Load(),
		Cancelled: e.cnt.cancelled.Load(),
		CacheHits: e.cnt.cacheHits.Load(),
		DiskHits:  e.cnt.diskHits.Load(),
		Coalesced: e.cnt.coalesced.Load(),
		Evicted:   e.cnt.evicted.Load(),
		RunWall:   time.Duration(e.cnt.runWallNs.Load()),
	}
}

// Workers returns the concurrency bound.
func (e *Executor) Workers() int { return e.workers }

// Shards returns the number of scheduler shards.
func (e *Executor) Shards() int { return e.nshards }

// DiskWarning returns a non-empty string when a requested disk cache
// degraded to memory-only operation (unwritable or unopenable
// directory), describing why.
func (e *Executor) DiskWarning() string { return e.diskWarn }

// DiskCacheStats returns the persistent tier's counters and whether a
// disk cache is attached.
func (e *Executor) DiskCacheStats() (diskcache.Stats, bool) {
	if e.disk == nil {
		return diskcache.Stats{}, false
	}
	return e.disk.Stats(), true
}

// RunID returns the stable wire identifier of a key — the same ID the
// persistent cache indexes results under (diskcache.RunID).
func RunID(id ID) string { return diskcache.RunID(diskcache.Key(id)) }

// DiskGetByID looks a completed run up in the persistent tier by its
// RunID. It answers Run-API queries for results computed by an earlier
// process; false when no disk cache is attached or the ID is unknown.
func (e *Executor) DiskGetByID(runID string) (metrics.Run, bool) {
	if e.disk == nil {
		return metrics.Run{}, false
	}
	_, run, ok := e.disk.GetByID(runID)
	return run, ok
}

func (e *Executor) shardFor(id ID) *shard {
	return e.shards[id.hash()&e.shardMask]
}

// Submit schedules the key and returns its run. Submissions of a key
// already in flight join it instead of re-executing (and then observe the
// leader's outcome, including its cancellation); completed runs are served
// from the sharded LRU, then from the persistent disk cache when one is
// attached. Cancelling ctx while queued or while this submission leads
// the execution returns ctx.Err() promptly.
func (e *Executor) Submit(ctx context.Context, key Key) (metrics.Run, error) {
	id := key.ID()
	tr := span.FromContext(ctx)
	e.cnt.submitted.Add(1)
	e.metrics.submitted.Inc()
	sh := e.shardFor(id)
	cacheSpan := tr.Start(span.StageCache)
	sh.lock()
	if run, ok := sh.cache.get(id); ok {
		sh.mu.Unlock()
		cacheSpan.End()
		e.cnt.cacheHits.Add(1)
		e.metrics.cacheHits.Inc()
		e.emit(Event{Kind: EventCached, Key: key, QueueDepth: int(e.queued.Load())})
		return run, nil
	}
	if c, ok := sh.inflight[id]; ok {
		sh.mu.Unlock()
		cacheSpan.End()
		e.cnt.coalesced.Add(1)
		e.metrics.coalesced.Inc()
		e.emit(Event{Kind: EventCoalesced, Key: key, QueueDepth: int(e.queued.Load())})
		wait := tr.Start(span.StageCoalesce)
		defer wait.End()
		select {
		case <-c.done:
			return c.run, c.err
		case <-ctx.Done():
			return metrics.Run{}, ctx.Err()
		}
	}
	c := &call{done: make(chan struct{})}
	sh.inflight[id] = c
	sh.mu.Unlock()
	e.metrics.queueDepth.Set(float64(e.queued.Add(1)))

	if e.disk != nil {
		if run, ok := e.disk.Get(diskcache.Key(id)); ok {
			cacheSpan.End()
			e.cnt.diskHits.Add(1)
			e.metrics.diskHits.Inc()
			c.run = run
			e.settle(sh, id, c, false, nil)
			e.emit(Event{Kind: EventDiskHit, Key: key, QueueDepth: int(e.queued.Load())})
			return run, nil
		}
		e.metrics.diskMisses.Inc()
	}
	cacheSpan.End()

	e.cnt.started.Add(1)
	e.metrics.started.Inc()
	c.run, c.err = e.execute(ctx, key)
	e.settle(sh, id, c, c.err == nil, tr)
	return c.run, c.err
}

// settle retires a leader's in-flight entry: the completed run enters
// the LRU (unless it failed), followers are released, and — for fresh
// executions — the persistent tier is written behind, recorded on the
// leader's span trace as the serialize stage.
func (e *Executor) settle(sh *shard, id ID, c *call, persist bool, tr *span.Trace) {
	sh.lock()
	delete(sh.inflight, id)
	var evicted int64
	if c.err == nil {
		evicted = int64(sh.cache.add(id, c.run))
	}
	sh.mu.Unlock()
	if evicted > 0 {
		e.cnt.evicted.Add(evicted)
		e.metrics.evicted.Add(float64(evicted))
	}
	e.metrics.queueDepth.Set(float64(e.queued.Add(-1)))
	close(c.done)
	if persist && e.disk != nil {
		ser := tr.Start(span.StageSerialize)
		e.disk.Put(diskcache.Key(id), c.run)
		ser.End()
	}
}

// SubmitUncached schedules the key through the same bounded worker pool
// and event stream, but neither coalesces nor memoises it. It exists for
// side-effectful runs — tracing, decision-log capture — whose outputs live
// outside the returned Run and must be produced fresh every time.
func (e *Executor) SubmitUncached(ctx context.Context, key Key) (metrics.Run, error) {
	e.cnt.submitted.Add(1)
	e.metrics.submitted.Inc()
	e.cnt.started.Add(1)
	e.metrics.started.Inc()
	e.metrics.queueDepth.Set(float64(e.queued.Add(1)))
	run, err := e.execute(ctx, key)
	e.metrics.queueDepth.Set(float64(e.queued.Add(-1)))
	return run, err
}

// SubmitFresh always executes — it never reads the LRU, the disk tier or
// a coalesced leader — but, unlike SubmitUncached, a successful run is
// written through to both cache tiers. It exists for observer-bearing
// runs (streaming trace sinks, decision-log capture): their sideband
// output must be produced fresh every time, yet the returned Run is
// bit-identical to an unobserved execution of the same key, so caching
// it lets later unobserved Submits — and a restarted daemon's disk
// resume — reuse the result.
func (e *Executor) SubmitFresh(ctx context.Context, key Key) (metrics.Run, error) {
	id := key.ID()
	tr := span.FromContext(ctx)
	e.cnt.submitted.Add(1)
	e.metrics.submitted.Inc()
	e.cnt.started.Add(1)
	e.metrics.started.Inc()
	e.metrics.queueDepth.Set(float64(e.queued.Add(1)))
	run, err := e.execute(ctx, key)
	e.metrics.queueDepth.Set(float64(e.queued.Add(-1)))
	if err != nil {
		return run, err
	}
	cacheSpan := tr.Start(span.StageCache)
	sh := e.shardFor(id)
	sh.lock()
	evicted := int64(sh.cache.add(id, run))
	sh.mu.Unlock()
	cacheSpan.End()
	if evicted > 0 {
		e.cnt.evicted.Add(evicted)
		e.metrics.evicted.Add(float64(evicted))
	}
	if e.disk != nil {
		ser := tr.Start(span.StageSerialize)
		e.disk.Put(diskcache.Key(id), run)
		ser.End()
	}
	return run, nil
}

// execute waits for a worker slot and runs the key, emitting progress
// events and maintaining the run counters.
func (e *Executor) execute(ctx context.Context, key Key) (metrics.Run, error) {
	if err := ctx.Err(); err != nil {
		e.cnt.cancelled.Add(1)
		e.metrics.cancelled.Inc()
		return metrics.Run{}, err
	}
	wait := span.FromContext(ctx).Start(span.StageWait)
	var slot int
	select {
	case slot = <-e.slots:
		wait.End()
	case <-ctx.Done():
		wait.End()
		e.cnt.cancelled.Add(1)
		e.metrics.cancelled.Inc()
		return metrics.Run{}, ctx.Err()
	}
	defer func() { e.slots <- slot }()
	// The run owns the slot's scratch arena until the deferred release;
	// see Scratch for the single-owner contract.
	ctx = withScratch(ctx, e.scratch[slot])

	e.emit(Event{Kind: EventStarted, Key: key, QueueDepth: int(e.queued.Load())})

	start := time.Now()
	run, err := e.run(ctx, key)
	wall := time.Since(start)

	e.cnt.runWallNs.Add(int64(wall))
	kind := EventCompleted
	if err != nil {
		e.cnt.failed.Add(1)
		e.metrics.failed.Inc()
		kind = EventFailed
	} else {
		e.cnt.completed.Add(1)
		e.metrics.completed.Inc()
	}
	// The run ID exemplar links the latency bucket to the run that
	// landed there, so a hot tail bucket names a concrete span tree.
	e.metrics.runSeconds.ObserveExemplar(wall.Seconds(), RunID(key.ID()))
	e.emit(Event{Kind: kind, Key: key, Wall: wall, QueueDepth: int(e.queued.Load()), Err: err})
	return run, err
}

// Outcome is one resolved submission of a batch.
type Outcome struct {
	// Idx is the submission's position in the batch, so consumers can
	// correlate outcomes with their inputs regardless of delivery timing.
	Idx int
	Key Key
	Run metrics.Run
	Err error
}

// SubmitAll schedules the whole batch on the executor's worker pool and
// streams outcomes on the returned channel in submission order (outcome
// i is delivered only after outcomes 0..i-1), so consuming the channel
// yields deterministic ordering regardless of execution interleaving.
// The channel closes after the last outcome; the caller must drain it.
// Cancelling ctx resolves the remaining submissions with ctx.Err()
// rather than abandoning them, so the stream always completes.
//
// The batch is partitioned before anything touches the scheduler's
// shared state: duplicate content addresses within the batch are grouped
// up front, one leader per group walks the full Submit path, and its
// followers copy the leader's outcome without ever taking a shard mutex
// or installing an in-flight entry — the batch-local equivalent of
// coalescing, accounted as such in Stats, paid as plain slice reads.
// Distinct keys are then striped across at most Workers() feeder
// goroutines (never one goroutine per key), so a batch of N distinct
// runs performs exactly N scheduler transactions regardless of how many
// duplicates ride along.
func (e *Executor) SubmitAll(ctx context.Context, keys []Key) <-chan Outcome {
	out := make(chan Outcome)
	if len(keys) == 0 {
		close(out)
		return out
	}
	// Pre-partition: group the batch by content address. leaders holds
	// the first key index of each group in batch order; followers[g]
	// holds the later indices sharing group g's address.
	groupOf := make(map[ID]int, len(keys))
	leaders := make([]int, 0, len(keys))
	var followers [][]int
	dups := 0
	for i, k := range keys {
		id := k.ID()
		if g, ok := groupOf[id]; ok {
			if followers == nil {
				followers = make([][]int, len(keys))
			}
			followers[g] = append(followers[g], i)
			dups++
			continue
		}
		groupOf[id] = len(leaders)
		leaders = append(leaders, i)
	}
	if dups > 0 {
		// Followers resolve from their leader below; account them once
		// as a batch instead of once per run.
		e.cnt.submitted.Add(int64(dups))
		e.cnt.coalesced.Add(int64(dups))
		e.metrics.submitted.Add(float64(dups))
		e.metrics.coalesced.Add(float64(dups))
	}
	feeders := e.workers
	if feeders > len(leaders) {
		feeders = len(leaders)
	}
	results := make(chan Outcome, len(keys))
	var next atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < feeders; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				g := int(next.Add(1)) - 1
				if g >= len(leaders) {
					return
				}
				li := leaders[g]
				run, err := e.Submit(ctx, keys[li])
				results <- Outcome{Idx: li, Key: keys[li], Run: run, Err: err}
				if followers != nil {
					for _, fi := range followers[g] {
						e.emit(Event{Kind: EventCoalesced, Key: keys[fi], QueueDepth: int(e.queued.Load())})
						results <- Outcome{Idx: fi, Key: keys[fi], Run: run, Err: err}
					}
				}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(results)
	}()
	go func() {
		defer close(out)
		pending := make(map[int]Outcome)
		want := 0
		for res := range results {
			pending[res.Idx] = res
			for {
				o, ok := pending[want]
				if !ok {
					break
				}
				delete(pending, want)
				want++
				out <- o
			}
		}
	}()
	return out
}

// Summary schedules runs 0..n-1 of the key's configuration as one batch
// and aggregates them with the paper's protocol (drop the fastest and
// slowest, average the rest). The template key's Idx is ignored.
func (e *Executor) Summary(ctx context.Context, key Key, n int) (metrics.Summary, error) {
	if n < 1 {
		return metrics.Summary{}, fmt.Errorf("exec: need at least one run, got %d", n)
	}
	keys := make([]Key, n)
	for i := range keys {
		keys[i] = key
		keys[i].Idx = i
	}
	runs := make([]metrics.Run, 0, n)
	var firstErr error
	for o := range e.SubmitAll(ctx, keys) {
		if o.Err != nil && firstErr == nil {
			firstErr = o.Err
		}
		runs = append(runs, o.Run)
	}
	if firstErr != nil {
		return metrics.Summary{}, firstErr
	}
	return metrics.Summarize(runs)
}

func (e *Executor) emit(ev Event) {
	if fn := e.obs.Load(); fn != nil && *fn != nil {
		(*fn)(ev)
	}
}
