// Package exec is the harness's shared run scheduler: a bounded worker
// pool that deduplicates in-flight runs (singleflight-style coalescing),
// memoises completed ones in a bounded LRU keyed by content address, and
// reports structured progress through an observer hook.
//
// One mutex guards the in-flight map and the memo LRU; the statistics
// are plain atomics. An optional persistent second tier (see the
// diskcache sub-package) survives the process: memo misses consult it
// outside the mutex before executing, a run it holds is served from it
// as read, and completed runs are written behind.
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
	// disk cache. The run is not copied into the LRU, so every repeat of
	// a disk-served key is a disk hit again.
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
	}
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
// submissions of the same key and memoising completed runs in an LRU,
// optionally backed by a persistent disk cache.
type Executor struct {
	run       Runner
	workers   int
	cacheSize int
	// slots carries the worker-slot tokens 0..workers-1; holding token i
	// grants exclusive use of scratch[i] for the duration of one run.
	slots    chan int
	scratch  []*Scratch
	registry *obs.Registry
	metrics  *execMetrics

	// mu guards inflight and cache.
	mu       sync.Mutex
	inflight map[ID]*call
	cache    *lruCache

	queued atomic.Int64
	cnt    counters
	obs    atomic.Pointer[Observer]

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
	e.inflight = make(map[ID]*call)
	e.cache = newLRU(e.cacheSize)
	e.slots = make(chan int, e.workers)
	e.scratch = make([]*Scratch, e.workers)
	for i := 0; i < e.workers; i++ {
		e.scratch[i] = &Scratch{slot: i}
		e.slots <- i
	}
	e.metrics = newExecMetrics(e.registry)

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

// Close flushes and fsyncs the runs this executor wrote to the
// persistent cache tier, if any; a tier it wrote nothing to removes its
// empty segment without an fsync. The executor itself holds no other
// resources; submitting after Close is allowed but no longer persists
// results.
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
	_, run, ok := e.DiskLookupByID(runID)
	return run, ok
}

// DiskLookupByID is DiskGetByID that also returns the run's content
// address, whose governor ID and run index a run's status reports.
func (e *Executor) DiskLookupByID(runID string) (ID, metrics.Run, bool) {
	if e.disk == nil {
		return ID{}, metrics.Run{}, false
	}
	key, run, ok := e.disk.GetByID(runID)
	return ID(key), run, ok
}

// Submit schedules the key and returns its run. Completed runs are
// served from the LRU; submissions of a key already in flight join it
// instead of re-executing (and then observe the leader's outcome,
// including its cancellation); a run the persistent disk cache holds,
// when one is attached, is served from it as read, without a copy into
// the LRU. Only a key no tier holds executes. Cancelling ctx while
// queued or while this submission leads the execution returns ctx.Err()
// promptly.
func (e *Executor) Submit(ctx context.Context, key Key) (metrics.Run, error) {
	return e.submit(ctx, key, false)
}

// SubmitFresh always executes — it never reads the LRU, the disk tier or
// a coalesced leader — but a successful run is written through to both
// cache tiers. It exists for observer-bearing runs (streaming trace
// sinks, decision-log capture): their sideband output must be produced
// fresh every time, yet the returned Run is bit-identical to an
// unobserved execution of the same key, so caching it lets later
// unobserved Submits — and a restarted daemon's disk resume — reuse the
// result.
func (e *Executor) SubmitFresh(ctx context.Context, key Key) (metrics.Run, error) {
	return e.submit(ctx, key, true)
}

// submit is the one submission body behind Submit and SubmitFresh. A
// non-fresh submission reads the LRU and the in-flight map under the
// lock, then the disk tier outside it; a disk hit touches no executor
// state but the counters, so the LRU holds only runs this executor
// computed or wrote through. Only a miss in every tier re-takes the
// lock, looks again and installs the in-flight entry it leads. A fresh
// submission skips the read side — the LRU, the in-flight map and the
// disk tier — so it never installs an in-flight entry, and its cache
// stage is the LRU write-through after the run instead of the lookups
// before it.
func (e *Executor) submit(ctx context.Context, key Key, fresh bool) (metrics.Run, error) {
	id := key.ID()
	tr := span.FromContext(ctx)
	e.cnt.submitted.Add(1)
	e.metrics.submitted.Inc()
	var c *call
	if !fresh {
		cacheSpan := tr.Start(span.StageCache)
		e.mu.Lock()
		run, hit, leader := e.lookup(id)
		if !hit && leader == nil && e.disk != nil {
			e.mu.Unlock()
			if run, ok := e.disk.Get(diskcache.Key(id)); ok {
				cacheSpan.End()
				e.cnt.diskHits.Add(1)
				e.metrics.diskHits.Inc()
				e.emit(Event{Kind: EventDiskHit, Key: key, QueueDepth: int(e.queued.Load())})
				return run, nil
			}
			e.metrics.diskMisses.Inc()
			// While the lock was released, another submission may have
			// settled the key or installed its in-flight entry.
			e.mu.Lock()
			run, hit, leader = e.lookup(id)
		}
		if !hit && leader == nil {
			c = &call{done: make(chan struct{})}
			e.inflight[id] = c
		}
		e.mu.Unlock()
		cacheSpan.End()
		switch {
		case hit:
			e.cnt.cacheHits.Add(1)
			e.metrics.cacheHits.Inc()
			e.emit(Event{Kind: EventCached, Key: key, QueueDepth: int(e.queued.Load())})
			return run, nil
		case leader != nil:
			e.cnt.coalesced.Add(1)
			e.metrics.coalesced.Inc()
			e.emit(Event{Kind: EventCoalesced, Key: key, QueueDepth: int(e.queued.Load())})
			wait := tr.Start(span.StageCoalesce)
			defer wait.End()
			select {
			case <-leader.done:
				return leader.run, leader.err
			case <-ctx.Done():
				return metrics.Run{}, ctx.Err()
			}
		}
	}
	e.metrics.queueDepth.Set(float64(e.queued.Add(1)))
	e.cnt.started.Add(1)
	e.metrics.started.Inc()
	run, err := e.execute(ctx, key)
	var writeThrough span.Handle
	if fresh && err == nil {
		writeThrough = tr.Start(span.StageCache)
	}
	e.settle(id, c, run, err)
	writeThrough.End()
	if err == nil && e.disk != nil {
		ser := tr.Start(span.StageSerialize)
		e.disk.Put(diskcache.Key(id), run)
		ser.End()
	}
	return run, err
}

// lookup reads the in-memory side of the key's resolution; the caller
// holds e.mu. It returns the LRU's run for id, or else the in-flight
// call a submission of id joins, nil when there is none.
func (e *Executor) lookup(id ID) (run metrics.Run, hit bool, leader *call) {
	if run, hit = e.cache.get(id); hit {
		return run, true, nil
	}
	return run, false, e.inflight[id]
}

// settle retires a submission that executed: a successful run enters
// the LRU, and the in-flight entry c, when the submission installed one
// (a fresh submission installs none), is removed and its followers
// released with the outcome.
func (e *Executor) settle(id ID, c *call, run metrics.Run, err error) {
	e.mu.Lock()
	if c != nil {
		delete(e.inflight, id)
	}
	var evicted int64
	if err == nil {
		evicted = int64(e.cache.add(id, run))
	}
	e.mu.Unlock()
	if evicted > 0 {
		e.cnt.evicted.Add(evicted)
		e.metrics.evicted.Add(float64(evicted))
	}
	e.metrics.queueDepth.Set(float64(e.queued.Add(-1)))
	if c != nil {
		c.run, c.err = run, err
		close(c.done)
	}
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
	Run metrics.Run
	Err error
}

// SubmitAll submits every key of the batch, at most Workers() at a time,
// and returns the outcomes indexed like keys. Duplicate keys resolve
// like any concurrent Submit: through the in-flight entry or the LRU, or
// from the disk tier again when it served the first.
// Cancelling ctx resolves the remaining submissions with ctx.Err().
func (e *Executor) SubmitAll(ctx context.Context, keys []Key) []Outcome {
	out := make([]Outcome, len(keys))
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(e.workers, len(keys)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(keys); i = int(next.Add(1)) - 1 {
				out[i].Run, out[i].Err = e.Submit(ctx, keys[i])
			}
		}()
	}
	wg.Wait()
	return out
}

func (e *Executor) emit(ev Event) {
	if fn := e.obs.Load(); fn != nil && *fn != nil {
		(*fn)(ev)
	}
}
