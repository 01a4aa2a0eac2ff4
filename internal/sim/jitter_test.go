package sim

import (
	"math"
	"math/rand"
	"testing"
)

// checkJitterStream draws n deviates from the copied generator and from
// math/rand seeded alike, and fails on the first pair whose bits differ.
func checkJitterStream(t *testing.T, seed int64, n int) {
	t.Helper()
	var got jitterRNG
	got.seed(seed)
	want := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		g, w := got.normFloat64(), want.NormFloat64()
		if math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("seed %d: draw %d = %v (%#016x), math/rand gives %v (%#016x)",
				seed, i, g, math.Float64bits(g), w, math.Float64bits(w))
		}
	}
}

// TestJitterRNGMatchesMathRand is the oracle of the copied generator: for
// every seed its NormFloat64 stream is math/rand's, bit for bit, over a
// million draws (≈ 2.7 % of them take the rejection path). The seeds
// cover the seeding edge cases (0, negative, beyond int32, the extremes)
// and the per-socket seeds New derives for the default and test seeds.
func TestJitterRNGMatchesMathRand(t *testing.T) {
	seeds := []int64{
		0, 1, -1, -7, 42, 89482311,
		1 << 31, 1<<31 - 1, 1<<40 + 3,
		math.MaxInt64, math.MinInt64,
	}
	for _, base := range []int64{DefaultConfig().Seed, 7} {
		for i := 0; i < DefaultConfig().Topo.Sockets; i++ {
			seeds = append(seeds, jitterSeed(base, i))
		}
	}
	for _, seed := range seeds {
		checkJitterStream(t, seed, 1_000_000)
	}
}

// FuzzJitterRNG races the copied generator against math/rand for any
// seed.
func FuzzJitterRNG(f *testing.F) {
	for _, seed := range []int64{0, 1, -1, 1009, 1 << 31, math.MaxInt64, math.MinInt64} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		checkJitterStream(t, seed, 10_000)
	})
}
