package exec

import (
	"context"
	"fmt"
	"strconv"
	"sync/atomic"
	"testing"

	"dufp/internal/metrics"
)

// BenchmarkSubmitDistinct measures the scheduler's bookkeeping cost per
// Submit of an always-distinct key — no hits, no coalescing, a free
// runner — from parallel goroutines on the executor's one mutex.
func BenchmarkSubmitDistinct(b *testing.B) {
	e := New(func(ctx context.Context, key Key) (metrics.Run, error) {
		return metrics.Run{}, nil
	}, WithWorkers(64))
	ctx := context.Background()
	var seq atomic.Int64
	b.RunParallel(func(pb *testing.PB) {
		app := "bench-" + strconv.Itoa(int(seq.Add(1)))
		i := 0
		for pb.Next() {
			if _, err := e.Submit(ctx, Key{App: app, Idx: i}); err != nil {
				b.Error(err)
				return
			}
			i++
		}
	})
}

// BenchmarkSubmitCached measures the hit path: every submission after
// the first is served by the LRU.
func BenchmarkSubmitCached(b *testing.B) {
	e := New(func(ctx context.Context, key Key) (metrics.Run, error) {
		return metrics.Run{}, nil
	})
	ctx := context.Background()
	key := testKey(0)
	if _, err := e.Submit(ctx, key); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := e.Submit(ctx, key); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// BenchmarkSubmitAll measures the batch API end to end at a few batch
// sizes, distinct keys, free runner.
func BenchmarkSubmitAll(b *testing.B) {
	for _, n := range []int{16, 256} {
		b.Run(fmt.Sprintf("batch=%d", n), func(b *testing.B) {
			e := New(func(ctx context.Context, key Key) (metrics.Run, error) {
				return metrics.Run{}, nil
			})
			ctx := context.Background()
			for i := 0; i < b.N; i++ {
				keys := make([]Key, n)
				for j := range keys {
					keys[j] = Key{App: "b" + strconv.Itoa(i), Idx: j}
				}
				for _, o := range e.SubmitAll(ctx, keys) {
					if o.Err != nil {
						b.Fatal(o.Err)
					}
				}
			}
		})
	}
}
