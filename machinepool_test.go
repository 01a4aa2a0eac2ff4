package dufp

import (
	"context"
	"math"
	"math/rand"
	"testing"
)

// TestReseededGeneratorDrawsAsFresh pins the pooled generators'
// contract: after any prior use, a generator that seeded hands out again
// draws exactly what rand.New(rand.NewSource(seed)) draws, for its first
// 10,000 Int63 and its first 10,000 NormFloat64 values.
func TestReseededGeneratorDrawsAsFresh(t *testing.T) {
	draws := []struct {
		name string
		draw func(*rand.Rand) uint64
	}{
		{"Int63", func(r *rand.Rand) uint64 { return uint64(r.Int63()) }},
		{"NormFloat64", func(r *rand.Rand) uint64 { return math.Float64bits(r.NormFloat64()) }},
	}
	var g generators
	use := rand.New(rand.NewSource(1))
	for trial := 0; trial < 12; trial++ {
		i := trial % 3
		r := g.seeded(i, use.Int63())
		// Arbitrary prior use, a Read among it leaving bytes buffered.
		for n := use.Intn(3000); n > 0; n-- {
			switch use.Intn(3) {
			case 0:
				r.Int63()
			case 1:
				r.NormFloat64()
			default:
				r.Read(make([]byte, 1+use.Intn(7)))
			}
		}
		seed := use.Int63() - use.Int63()
		for _, d := range draws {
			if got := g.seeded(i, seed); got != r {
				t.Fatalf("trial %d: generator %d was not reused", trial, i)
			}
			fresh := rand.New(rand.NewSource(seed))
			for k := 0; k < 10000; k++ {
				if a, b := d.draw(r), d.draw(fresh); a != b {
					t.Fatalf("trial %d: %s draw %d = %#x reseeded, %#x fresh", trial, d.name, k, a, b)
				}
			}
		}
	}
	if ctx := context.Background(); generatorsFor(ctx) == generatorsFor(ctx) {
		t.Error("runs outside a worker share generators")
	}
}
