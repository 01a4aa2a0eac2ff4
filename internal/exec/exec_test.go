package exec

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dufp/internal/metrics"
)

// testKey builds a key of the shared test configuration at run idx.
func testKey(idx int) Key {
	return Key{App: "app", Governor: "gov", Session: "sess", Idx: idx}
}

// countRunner returns a runner that counts executions and produces a run
// whose time encodes the run index (idx+1 seconds).
func countRunner(execs *atomic.Int64) Runner {
	return func(ctx context.Context, key Key) (metrics.Run, error) {
		execs.Add(1)
		return metrics.Run{
			App:      key.App,
			Governor: key.Governor,
			Time:     time.Duration(key.Idx+1) * time.Second,
		}, nil
	}
}

func TestSubmitMemoises(t *testing.T) {
	var execs atomic.Int64
	e := New(countRunner(&execs))

	first, err := e.Submit(context.Background(), testKey(3))
	if err != nil {
		t.Fatal(err)
	}
	second, err := e.Submit(context.Background(), testKey(3))
	if err != nil {
		t.Fatal(err)
	}
	if first != second {
		t.Fatalf("cached run differs: %+v vs %+v", first, second)
	}
	if n := execs.Load(); n != 1 {
		t.Fatalf("runner executed %d times, want 1", n)
	}
	st := e.Stats()
	if st.Submitted != 2 || st.Started != 1 || st.Completed != 1 || st.CacheHits != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestKeyIdentityIgnoresPayload(t *testing.T) {
	var execs atomic.Int64
	e := New(countRunner(&execs))
	a := testKey(0)
	a.Payload = "first materialisation"
	b := testKey(0)
	b.Payload = "second materialisation"
	if _, err := e.Submit(context.Background(), a); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Submit(context.Background(), b); err != nil {
		t.Fatal(err)
	}
	if n := execs.Load(); n != 1 {
		t.Fatalf("payload leaked into identity: %d executions", n)
	}
}

func TestSubmitCoalesces(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	var execs atomic.Int64
	e := New(func(ctx context.Context, key Key) (metrics.Run, error) {
		execs.Add(1)
		close(started)
		<-release
		return metrics.Run{App: key.App, Governor: key.Governor, Time: time.Second}, nil
	})

	results := make(chan metrics.Run, 2)
	go func() {
		r, _ := e.Submit(context.Background(), testKey(0))
		results <- r
	}()
	<-started
	go func() {
		r, _ := e.Submit(context.Background(), testKey(0))
		results <- r
	}()
	// Wait for the second submission to join the in-flight call, then let
	// the leader finish.
	for e.Stats().Coalesced == 0 {
		time.Sleep(time.Millisecond)
	}
	close(release)

	a, b := <-results, <-results
	if a != b {
		t.Fatalf("coalesced runs differ: %+v vs %+v", a, b)
	}
	if n := execs.Load(); n != 1 {
		t.Fatalf("runner executed %d times, want 1", n)
	}
	st := e.Stats()
	if st.Started != 1 || st.Coalesced != 1 || st.Completed != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestLRUEviction(t *testing.T) {
	var execs atomic.Int64
	e := New(countRunner(&execs), WithCacheSize(2))
	ctx := context.Background()
	for _, idx := range []int{0, 1, 2} {
		if _, err := e.Submit(ctx, testKey(idx)); err != nil {
			t.Fatal(err)
		}
	}
	// Key 0 was evicted by key 2; resubmitting recomputes it.
	if _, err := e.Submit(ctx, testKey(0)); err != nil {
		t.Fatal(err)
	}
	if n := execs.Load(); n != 4 {
		t.Fatalf("runner executed %d times, want 4", n)
	}
	st := e.Stats()
	if st.Evicted != 2 {
		t.Fatalf("stats = %+v, want two evictions (key 0 by key 2, key 1 by key 0)", st)
	}
	if st.CacheHits != 0 {
		t.Fatalf("unexpected cache hit: %+v", st)
	}
	// Key 2 stayed resident through the reshuffle.
	if _, err := e.Submit(ctx, testKey(2)); err != nil {
		t.Fatal(err)
	}
	if n := execs.Load(); n != 4 {
		t.Fatalf("resident key recomputed: %d executions", n)
	}
}

func TestSubmitCancelWhileQueued(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{})
	e := New(func(ctx context.Context, key Key) (metrics.Run, error) {
		close(started)
		<-release
		return metrics.Run{App: key.App, Governor: key.Governor}, nil
	}, WithWorkers(1))
	defer close(release)

	go e.Submit(context.Background(), testKey(0)) // occupies the only worker
	<-started

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := e.Submit(ctx, testKey(1))
		errc <- err
	}()
	time.Sleep(10 * time.Millisecond) // let it queue on the worker slot
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("queued submission did not observe cancellation")
	}
}

func TestCoalescedFollowerCancel(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	e := New(func(ctx context.Context, key Key) (metrics.Run, error) {
		close(started)
		<-release
		return metrics.Run{App: key.App, Governor: key.Governor}, nil
	})

	leaderDone := make(chan error, 1)
	go func() {
		_, err := e.Submit(context.Background(), testKey(0))
		leaderDone <- err
	}()
	<-started

	ctx, cancel := context.WithCancel(context.Background())
	followerDone := make(chan error, 1)
	go func() {
		_, err := e.Submit(ctx, testKey(0))
		followerDone <- err
	}()
	for e.Stats().Coalesced == 0 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	select {
	case err := <-followerDone:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("follower err = %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancelled follower did not return")
	}
	// The leader is unaffected by the follower's cancellation.
	close(release)
	if err := <-leaderDone; err != nil {
		t.Fatalf("leader err = %v", err)
	}
}

func TestFailedRunsAreNotCached(t *testing.T) {
	var execs atomic.Int64
	boom := errors.New("boom")
	e := New(func(ctx context.Context, key Key) (metrics.Run, error) {
		if execs.Add(1) == 1 {
			return metrics.Run{}, boom
		}
		return metrics.Run{App: key.App, Governor: key.Governor}, nil
	})
	if _, err := e.Submit(context.Background(), testKey(0)); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if _, err := e.Submit(context.Background(), testKey(0)); err != nil {
		t.Fatalf("retry after failure: %v", err)
	}
	st := e.Stats()
	if st.Failed != 1 || st.Completed != 1 || st.CacheHits != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestSubmitFreshWritesThrough(t *testing.T) {
	var execs atomic.Int64
	e := New(countRunner(&execs), WithDiskCache(t.TempDir(), "test-v1"))
	ctx := context.Background()

	// Two fresh submissions both execute — no cache reads, no coalescing.
	first, err := e.SubmitFresh(ctx, testKey(0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.SubmitFresh(ctx, testKey(0)); err != nil {
		t.Fatal(err)
	}
	if n := execs.Load(); n != 2 {
		t.Fatalf("runner executed %d times, want 2", n)
	}
	if st := e.Stats(); st.CacheHits != 0 || st.DiskHits != 0 || st.Started != 2 {
		t.Fatalf("stats = %+v", st)
	}

	// But the result was written through: a plain Submit is a memo hit.
	got, err := e.Submit(ctx, testKey(0))
	if err != nil {
		t.Fatal(err)
	}
	if got != first {
		t.Fatalf("cached run differs: %+v vs %+v", got, first)
	}
	if n := execs.Load(); n != 2 {
		t.Fatalf("Submit after SubmitFresh re-executed (%d executions)", n)
	}
	if st := e.Stats(); st.CacheHits != 1 {
		t.Fatalf("stats = %+v", st)
	}

	// And the disk tier has it too: a cold executor resolves from disk.
	if run, ok := e.DiskGetByID(RunID(testKey(0).ID())); !ok || run != first {
		t.Fatalf("disk tier: ok=%v run=%+v, want %+v", ok, run, first)
	}
}

// TestSubmitNeverJoinsFreshRun pins that a fresh submission installs no
// in-flight entry: a plain Submit of a key whose fresh run is executing
// executes on its own instead of waiting for it.
func TestSubmitNeverJoinsFreshRun(t *testing.T) {
	release := make(chan struct{})
	var execs atomic.Int64
	e := New(func(ctx context.Context, key Key) (metrics.Run, error) {
		if execs.Add(1) == 1 {
			<-release
		}
		return metrics.Run{App: key.App, Governor: key.Governor}, nil
	})
	ctx := context.Background()
	freshDone := make(chan error, 1)
	go func() {
		_, err := e.SubmitFresh(ctx, testKey(0))
		freshDone <- err
	}()
	for execs.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	plainDone := make(chan error, 1)
	go func() {
		_, err := e.Submit(ctx, testKey(0))
		plainDone <- err
	}()
	select {
	case err := <-plainDone:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Submit waited for a fresh run of its key")
	}
	close(release)
	if err := <-freshDone; err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); execs.Load() != 2 || st.Coalesced != 0 || st.Started != 2 {
		t.Fatalf("stats = %+v after %d executions, want 2 started and none coalesced", st, execs.Load())
	}
}

func TestObserverEvents(t *testing.T) {
	var (
		mu    sync.Mutex
		kinds []EventKind
	)
	var execs atomic.Int64
	e := New(countRunner(&execs), WithObserver(func(ev Event) {
		mu.Lock()
		kinds = append(kinds, ev.Kind)
		mu.Unlock()
	}))
	ctx := context.Background()
	if _, err := e.Submit(ctx, testKey(0)); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Submit(ctx, testKey(0)); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	want := []EventKind{EventStarted, EventCompleted, EventCached}
	if len(kinds) != len(want) {
		t.Fatalf("events = %v, want %v", kinds, want)
	}
	for i, k := range want {
		if kinds[i] != k {
			t.Fatalf("events = %v, want %v", kinds, want)
		}
	}
}

func TestEventKindString(t *testing.T) {
	for kind, want := range map[EventKind]string{
		EventStarted:   "started",
		EventCompleted: "completed",
		EventFailed:    "failed",
		EventCached:    "cached",
		EventCoalesced: "coalesced",
		EventKind(99):  "EventKind(99)",
	} {
		if got := kind.String(); got != want {
			t.Errorf("String(%d) = %q, want %q", int(kind), got, want)
		}
	}
}

func TestWorkersBound(t *testing.T) {
	var peak, cur, execs atomic.Int64
	release := make(chan struct{})
	e := New(func(ctx context.Context, key Key) (metrics.Run, error) {
		n := cur.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		execs.Add(1)
		<-release
		cur.Add(-1)
		return metrics.Run{App: key.App, Governor: key.Governor}, nil
	}, WithWorkers(2))

	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			e.Submit(context.Background(), testKey(i))
		}(i)
	}
	for execs.Load() < 2 {
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	if p := peak.Load(); p > 2 {
		t.Fatalf("observed %d concurrent runs, worker bound is 2", p)
	}
	if e.Workers() != 2 {
		t.Fatalf("Workers() = %d", e.Workers())
	}
}

func TestOptionDefaultsRestoredByNonPositive(t *testing.T) {
	// The doc contract: a non-positive value restores the default even if
	// an earlier option set a positive one.
	e := New(countRunner(new(atomic.Int64)), WithWorkers(3), WithWorkers(0))
	if got, want := e.Workers(), runtime.GOMAXPROCS(0); got != want {
		t.Fatalf("Workers() = %d, want GOMAXPROCS default %d", got, want)
	}
	e = New(countRunner(new(atomic.Int64)), WithCacheSize(7), WithCacheSize(-1))
	if e.cacheSize != DefaultCacheSize {
		t.Fatalf("cacheSize = %d, want default %d", e.cacheSize, DefaultCacheSize)
	}
}

func TestSubmitAllOrderedAndDeduplicated(t *testing.T) {
	var execs atomic.Int64
	e := New(countRunner(&execs))
	keys := make([]Key, 40)
	for i := range keys {
		keys[i] = testKey(i % 10) // each distinct key appears four times
	}
	outs := e.SubmitAll(context.Background(), keys)
	if len(outs) != len(keys) {
		t.Fatalf("got %d outcomes, want %d", len(outs), len(keys))
	}
	for i, o := range outs {
		if o.Err != nil {
			t.Fatal(o.Err)
		}
		if want := time.Duration(keys[i].Idx+1) * time.Second; o.Run.Time != want {
			t.Fatalf("outcome %d: run time %v, want %v", i, o.Run.Time, want)
		}
	}
	if n := execs.Load(); n != 10 {
		t.Fatalf("runner executed %d times, want 10 (duplicates served from cache or coalesced)", n)
	}
	st := e.Stats()
	if st.Submitted != 40 || st.Started != 10 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Submitted != st.CacheHits+st.DiskHits+st.Coalesced+st.Started {
		t.Fatalf("stats identity violated: %+v", st)
	}
}

func TestSubmitAllEmptyAndCancelled(t *testing.T) {
	e := New(countRunner(new(atomic.Int64)))
	if outs := e.SubmitAll(context.Background(), nil); len(outs) != 0 {
		t.Fatalf("empty batch delivered %d outcomes", len(outs))
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	keys := []Key{testKey(0), testKey(1), testKey(2)}
	outs := e.SubmitAll(ctx, keys)
	if len(outs) != len(keys) {
		t.Fatalf("cancelled batch delivered %d outcomes, want %d", len(outs), len(keys))
	}
	for i, o := range outs {
		if !errors.Is(o.Err, context.Canceled) {
			t.Fatalf("outcome %d err = %v, want context.Canceled", i, o.Err)
		}
	}
	st := e.Stats()
	if st.Cancelled != 3 || st.Started != 3 {
		t.Fatalf("stats = %+v, want 3 started and 3 cancelled", st)
	}
}

// allocatedBytes returns the heap bytes f allocates.
func allocatedBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestNewAllocatesLittle pins that an executor starts empty: the memo
// LRU's arena and index grow as runs arrive rather than at the bound,
// and an empty disk tier queues nothing, so construction costs a small
// constant, not DefaultCacheSize entries.
func TestNewAllocatesLittle(t *testing.T) {
	if raceEnabled {
		t.Skip("heap counts under the race detector")
	}
	run := countRunner(new(atomic.Int64))
	New(run).Close() // registers the executor's metric families
	for _, tc := range []struct {
		name string
		opts []Option
	}{
		{"memory only", nil},
		{"empty disk tier", []Option{WithDiskCache(t.TempDir(), "v1")}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var e *Executor
			b := allocatedBytes(func() { e = New(run, tc.opts...) })
			if err := e.Close(); err != nil {
				t.Fatal(err)
			}
			if b >= 64<<10 {
				t.Errorf("New allocated %d KiB, want < 64 KiB", b>>10)
			}
		})
	}
}
