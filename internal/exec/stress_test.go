package exec

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dufp/internal/metrics"
)

// stressKeys is the size of TestSubmitStress's overlapping key space.
const stressKeys = 17

// freshPayload marks a key submitted through SubmitFresh, so the runner
// can tell fresh executions, which may repeat and overlap, from
// scheduled ones.
const freshPayload = "fresh"

// TestSubmitStress hammers the executor from many goroutines mixing its
// three entry points over one overlapping key space — Submit,
// SubmitFresh, and SubmitAll batches that repeat a key — with a quarter
// of the calls racing a cancellation. It runs memory-only and over a
// disk tier warmed with every other key, and asserts the scheduler's two
// core invariants at quiescence:
//
//  1. accounting adds up: Submitted == CacheHits + DiskHits + Coalesced +
//     Started, and Started == Completed + Failed + Cancelled;
//  2. no run executes twice: the runner never observes two concurrent
//     non-fresh executions of one key, and a key that completed
//     successfully is never re-executed except by SubmitFresh.
//
// Run it under -race (make race wires it in): the interesting failures
// are ordering windows between the in-flight map, the LRU, the disk tier
// and the atomic counters.
func TestSubmitStress(t *testing.T) {
	t.Run("memory", func(t *testing.T) {
		stressSubmit(t)
	})
	t.Run("disk", func(t *testing.T) {
		dir := t.TempDir()
		warm := New(countRunner(new(atomic.Int64)), WithDiskCache(dir, "stress-v1"))
		for idx := 0; idx < stressKeys; idx += 2 {
			if _, err := warm.Submit(context.Background(), testKey(idx)); err != nil {
				t.Fatal(err)
			}
		}
		if err := warm.Close(); err != nil {
			t.Fatal(err)
		}
		st := stressSubmit(t, WithDiskCache(dir, "stress-v1"))
		if st.DiskHits == 0 {
			t.Fatalf("stats = %+v, want the warmed keys served from disk", st)
		}
	})
}

// stressSubmit runs TestSubmitStress's traffic on an executor built with
// opts, checks the invariants and returns the final statistics.
func stressSubmit(t *testing.T, opts ...Option) Stats {
	const (
		goroutines = 32
		ops        = 200
		batch      = 8
	)
	var (
		inflight  [stressKeys]atomic.Int64
		completed [stressKeys]atomic.Int64
		fresh     atomic.Int64
		submitted atomic.Int64
	)
	e := New(func(ctx context.Context, key Key) (metrics.Run, error) {
		idx := key.Idx
		pause := time.Duration(idx%3) * 100 * time.Microsecond
		if key.Payload == freshPayload {
			time.Sleep(pause)
			fresh.Add(1)
			return metrics.Run{App: key.App, Governor: key.Governor}, nil
		}
		if n := inflight[idx].Add(1); n != 1 {
			t.Errorf("key %d: %d concurrent executions", idx, n)
		}
		time.Sleep(pause)
		if completed[idx].Load() > 0 {
			t.Errorf("key %d re-executed after a successful completion", idx)
		}
		completed[idx].Add(1)
		inflight[idx].Add(-1)
		return metrics.Run{App: key.App, Governor: key.Governor}, nil
	}, append([]Option{WithWorkers(8)}, opts...)...)
	defer e.Close()

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < ops; i++ {
				ctx := context.Background()
				cancel := context.CancelFunc(func() {})
				if rng.Intn(4) == 0 {
					// A quarter of the calls race a cancellation against
					// their own scheduling.
					ctx, cancel = context.WithCancel(ctx)
					delay := time.Duration(rng.Intn(200)) * time.Microsecond
					go func() {
						time.Sleep(delay)
						cancel()
					}()
				}
				var errs []error
				switch rng.Intn(8) {
				case 0:
					key := testKey(rng.Intn(stressKeys))
					key.Payload = freshPayload
					_, err := e.SubmitFresh(ctx, key)
					errs = append(errs, err)
					submitted.Add(1)
				case 1:
					keys := make([]Key, batch)
					for j := range keys {
						keys[j] = testKey(rng.Intn(stressKeys))
					}
					keys[batch-1] = keys[0] // an in-batch duplicate
					for _, o := range e.SubmitAll(ctx, keys) {
						errs = append(errs, o.Err)
					}
					submitted.Add(batch)
				default:
					_, err := e.Submit(ctx, testKey(rng.Intn(stressKeys)))
					errs = append(errs, err)
					submitted.Add(1)
				}
				for _, err := range errs {
					if err != nil && !errors.Is(err, context.Canceled) {
						t.Errorf("submit error: %v", err)
					}
				}
				cancel()
			}
		}(g)
	}
	wg.Wait()

	st := e.Stats()
	if st.Submitted != submitted.Load() {
		t.Fatalf("submitted %d, want %d", st.Submitted, submitted.Load())
	}
	if got := st.CacheHits + st.DiskHits + st.Coalesced + st.Started; got != st.Submitted {
		t.Fatalf("stats identity violated: CacheHits+DiskHits+Coalesced+Started = %d, Submitted = %d (%+v)",
			got, st.Submitted, st)
	}
	if got := st.Completed + st.Failed + st.Cancelled; got != st.Started {
		t.Fatalf("start accounting violated: Completed+Failed+Cancelled = %d, Started = %d (%+v)",
			got, st.Started, st)
	}
	if st.Failed != 0 {
		t.Fatalf("stats = %+v, runner never fails", st)
	}
	runs := fresh.Load()
	for i := range completed {
		runs += completed[i].Load()
	}
	if runs != st.Completed {
		t.Fatalf("runner executed %d runs, executor counted %d completions", runs, st.Completed)
	}
	if fresh.Load() == 0 || st.CacheHits+st.Coalesced == 0 {
		t.Fatalf("stats = %+v with %d fresh runs, want every path exercised", st, fresh.Load())
	}
	return st
}
