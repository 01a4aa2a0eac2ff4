package exec

import (
	"context"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dufp/internal/metrics"
)

// TestSubmitAllOverlapsDistinctRuns is the regression test for the
// multicore scaling wall: a batch of distinct slow specs at parallelism
// 8 must actually overlap executions. The runner sleeps, so overlap is
// observable even on a single-CPU host — if the batch path serialises
// (feeders blocked behind one lock, or a single worker slot doing all
// the work), max-inflight stays at 1 and this test fails.
func TestSubmitAllOverlapsDistinctRuns(t *testing.T) {
	var cur, peak atomic.Int64
	e := New(func(ctx context.Context, key Key) (metrics.Run, error) {
		n := cur.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		time.Sleep(20 * time.Millisecond)
		cur.Add(-1)
		return metrics.Run{}, nil
	}, WithWorkers(8))
	keys := make([]Key, 8)
	for i := range keys {
		keys[i] = Key{App: "slow-" + strconv.Itoa(i)}
	}
	for _, o := range e.SubmitAll(context.Background(), keys) {
		if o.Err != nil {
			t.Fatal(o.Err)
		}
	}
	if p := peak.Load(); p <= 1 {
		t.Fatalf("max observed inflight = %d; a batch of 8 distinct runs at parallelism 8 never overlapped", p)
	}
}

// TestSubmitAllBatchDedup pins the batch contract: duplicate content
// addresses in one batch execute once, resolving through the in-flight
// entry or the LRU, and every outcome still lands at its own index.
// Which of the two absorbs a duplicate depends on timing, so only their
// sum is pinned.
func TestSubmitAllBatchDedup(t *testing.T) {
	var execs atomic.Int64
	e := New(func(ctx context.Context, key Key) (metrics.Run, error) {
		execs.Add(1)
		return metrics.Run{Time: time.Duration(key.Idx+1) * time.Second}, nil
	}, WithWorkers(4))
	keys := make([]Key, 30)
	for i := range keys {
		keys[i] = Key{App: "dup", Idx: i % 3} // 3 distinct addresses, ×10 each
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
	if n := execs.Load(); n != 3 {
		t.Fatalf("runner executed %d times, want 3 (in-batch duplicates must not re-execute)", n)
	}
	st := e.Stats()
	if st.Submitted != 30 || st.Started != 3 || st.Coalesced+st.CacheHits != 27 {
		t.Fatalf("stats = %+v, want 30 submitted / 3 started / 27 coalesced or cached", st)
	}
	if st.Submitted != st.CacheHits+st.DiskHits+st.Coalesced+st.Started {
		t.Fatalf("stats identity violated: %+v", st)
	}
}

// TestSubmitAllPartitionerRaceStress hammers SubmitAll's partitioning of
// a batch across its feeders from many goroutines with overlapping
// batches that share keys, under the race detector: concurrent SubmitAll
// calls must coexist with each other, with plain Submits of the same
// addresses and with LRU evictions.
func TestSubmitAllPartitionerRaceStress(t *testing.T) {
	var execs atomic.Int64
	e := New(func(ctx context.Context, key Key) (metrics.Run, error) {
		execs.Add(1)
		return metrics.Run{Time: time.Duration(key.Idx+1) * time.Millisecond}, nil
	}, WithWorkers(4), WithCacheSize(8)) // tiny LRU: force evictions too
	ctx := context.Background()
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 20; round++ {
				keys := make([]Key, 24)
				for i := range keys {
					// Overlapping key space across goroutines and rounds,
					// with in-batch duplicates.
					keys[i] = Key{App: "stress-" + strconv.Itoa((g+round+i)%5), Idx: i % 6}
				}
				for i, o := range e.SubmitAll(ctx, keys) {
					if o.Err != nil {
						t.Error(o.Err)
						return
					}
					if want := time.Duration(keys[i].Idx+1) * time.Millisecond; o.Run.Time != want {
						t.Errorf("outcome %d: run time %v, want %v", i, o.Run.Time, want)
						return
					}
				}
				if _, err := e.Submit(ctx, keys[round%len(keys)]); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	st := e.Stats()
	if st.Submitted != st.CacheHits+st.DiskHits+st.Coalesced+st.Started {
		t.Fatalf("stats identity violated: %+v", st)
	}
}

// TestScratchSingleOwner verifies the per-slot scratch contract: every
// concurrently executing run sees a distinct arena, arenas persist
// across runs on the same slot, and runs outside the executor see nil.
func TestScratchSingleOwner(t *testing.T) {
	const workers = 4
	var mu sync.Mutex
	inUse := map[*Scratch]bool{}
	reuses := 0
	e := New(func(ctx context.Context, key Key) (metrics.Run, error) {
		sc := ScratchFromContext(ctx)
		if sc == nil {
			t.Error("runner executed without a scratch arena")
			return metrics.Run{}, nil
		}
		mu.Lock()
		if inUse[sc] {
			t.Errorf("scratch arena for slot %d owned by two concurrent runs", sc.Slot())
		}
		inUse[sc] = true
		if sc.Get("state") != nil {
			reuses++
		}
		mu.Unlock()
		sc.Put("state", key.App)
		time.Sleep(2 * time.Millisecond)
		mu.Lock()
		inUse[sc] = false
		mu.Unlock()
		return metrics.Run{}, nil
	}, WithWorkers(workers))
	keys := make([]Key, 32)
	for i := range keys {
		keys[i] = Key{App: "scratch-" + strconv.Itoa(i)}
	}
	for _, o := range e.SubmitAll(context.Background(), keys) {
		if o.Err != nil {
			t.Fatal(o.Err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(inUse) > workers {
		t.Fatalf("saw %d distinct arenas, worker bound is %d", len(inUse), workers)
	}
	if reuses == 0 {
		t.Fatal("no run ever observed a previous run's scratch state; arenas are not persisting per slot")
	}
	if ScratchFromContext(context.Background()) != nil {
		t.Fatal("ScratchFromContext outside a worker must be nil")
	}
}
