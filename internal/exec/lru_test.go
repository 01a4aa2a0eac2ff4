package exec

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"dufp/internal/metrics"
)

// TestLRUMatchesModel drives the block-grown arena and a plain
// recency-ordered slice with one random sequence of gets and adds, at
// bounds that end inside a block, on a block boundary and past several
// blocks. Every lookup, eviction and length agrees, the final recency
// orders are equal, and the arena holds whole blocks up to the bound.
func TestLRUMatchesModel(t *testing.T) {
	for _, capacity := range []int{1, 3, lruBlock, lruBlock + 44, 3*lruBlock + 1} {
		c := newLRU(capacity)
		var model []ID // most recently used first
		rng := rand.New(rand.NewSource(int64(capacity)))
		for step := 0; step < 20*capacity+500; step++ {
			id := testKey(rng.Intn(2*capacity + 2)).ID()
			pos := slices.Index(model, id)
			if rng.Intn(3) == 0 {
				run, ok := c.get(id)
				if ok != (pos >= 0) || ok && run.Time != time.Duration(id.Idx) {
					t.Fatalf("cap %d step %d: get(%d) = %v, %v; model holds it: %v", capacity, step, id.Idx, run.Time, ok, pos >= 0)
				}
				if ok {
					model = append([]ID{id}, slices.Delete(model, pos, pos+1)...)
				}
				continue
			}
			evicted := c.add(id, metrics.Run{Time: time.Duration(id.Idx)})
			want := 0
			switch {
			case pos >= 0:
				model = slices.Delete(model, pos, pos+1)
			case len(model) == capacity:
				model, want = model[:capacity-1], 1
			}
			model = append([]ID{id}, model...)
			if evicted != want || c.len() != len(model) {
				t.Fatalf("cap %d step %d: add evicted %d with %d held, want %d with %d", capacity, step, evicted, c.len(), want, len(model))
			}
		}
		var order []ID
		for i := c.head; i >= 0; i = c.at(i).next {
			order = append(order, c.at(i).id)
		}
		if !slices.Equal(order, model) {
			t.Fatalf("cap %d: recency order differs from the model", capacity)
		}
		arena := 0
		for _, b := range c.blocks {
			arena += len(b)
		}
		if want := min(capacity, (c.len()+lruBlock-1)/lruBlock*lruBlock); arena != want {
			t.Errorf("cap %d: arena holds %d entries for %d runs, want %d", capacity, arena, c.len(), want)
		}
	}
}
