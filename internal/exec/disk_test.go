package exec

import (
	"context"
	"math"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"dufp/internal/metrics"
	"dufp/internal/units"
)

// countingRunner returns a runner that records how many times it ran and
// produces a deterministic, float-rich Run for bit-identity checks.
func countingRunner(calls *atomic.Int64) Runner {
	return func(ctx context.Context, key Key) (metrics.Run, error) {
		calls.Add(1)
		f := float64(key.Idx) + 0.1234567890123456789
		return metrics.Run{
			App:          key.App,
			Governor:     key.Governor,
			Slowdown:     f / 3,
			PkgEnergy:    units.Energy(f * 97.3),
			DramEnergy:   units.Energy(f * 11.1),
			AvgPkgPower:  units.Power(f * 1.7),
			AvgDramPower: units.Power(f * 0.31),
			AvgCoreFreq:  units.Frequency(f * 1e9),
			AvgUncore:    units.Frequency(f * 0.8e9),
		}, nil
	}
}

func TestDiskCacheSecondTier(t *testing.T) {
	dir := t.TempDir()
	const version = "v-test"
	ctx := context.Background()

	// First process: every submission misses disk, runs, and persists.
	var calls1 atomic.Int64
	e1 := New(countingRunner(&calls1), WithDiskCache(dir, version))
	if w := e1.DiskWarning(); w != "" {
		t.Fatalf("unexpected disk warning: %q", w)
	}
	fresh := make([]metrics.Run, 4)
	for i := range fresh {
		r, err := e1.Submit(ctx, testKey(i))
		if err != nil {
			t.Fatal(err)
		}
		fresh[i] = r
	}
	if err := e1.Close(); err != nil {
		t.Fatal(err)
	}
	if calls1.Load() != 4 {
		t.Fatalf("runner ran %d times, want 4", calls1.Load())
	}
	if st := e1.Stats(); st.DiskHits != 0 || st.Started != 4 {
		t.Fatalf("cold stats = %+v, want 4 started, 0 disk hits", st)
	}

	// Second process: a fresh executor over the same directory serves
	// everything from disk without invoking the runner at all.
	var calls2 atomic.Int64
	var diskEvents atomic.Int64
	e2 := New(countingRunner(&calls2),
		WithDiskCache(dir, version),
		WithObserver(func(ev Event) {
			if ev.Kind == EventDiskHit {
				diskEvents.Add(1)
			}
		}))
	defer e2.Close()
	for i := range fresh {
		warm, err := e2.Submit(ctx, testKey(i))
		if err != nil {
			t.Fatal(err)
		}
		// Bit-identical: the persisted run must round-trip exactly.
		pairs := [][2]float64{
			{warm.Slowdown, fresh[i].Slowdown},
			{float64(warm.PkgEnergy), float64(fresh[i].PkgEnergy)},
			{float64(warm.DramEnergy), float64(fresh[i].DramEnergy)},
			{float64(warm.AvgPkgPower), float64(fresh[i].AvgPkgPower)},
			{float64(warm.AvgDramPower), float64(fresh[i].AvgDramPower)},
			{float64(warm.AvgCoreFreq), float64(fresh[i].AvgCoreFreq)},
			{float64(warm.AvgUncore), float64(fresh[i].AvgUncore)},
		}
		for j, p := range pairs {
			if math.Float64bits(p[0]) != math.Float64bits(p[1]) {
				t.Errorf("key %d field %d: disk run not bit-identical: %x != %x",
					i, j, math.Float64bits(p[0]), math.Float64bits(p[1]))
			}
		}
		if warm != fresh[i] {
			t.Errorf("key %d: disk run differs: %+v vs %+v", i, warm, fresh[i])
		}
	}
	if calls2.Load() != 0 {
		t.Fatalf("warm runner ran %d times, want 0", calls2.Load())
	}
	st := e2.Stats()
	if st.DiskHits != 4 || st.Started != 0 {
		t.Fatalf("warm stats = %+v, want 4 disk hits, 0 started", st)
	}
	if st.Submitted != st.CacheHits+st.DiskHits+st.Coalesced+st.Started {
		t.Fatalf("stats identity violated with disk tier: %+v", st)
	}
	if diskEvents.Load() != 4 {
		t.Fatalf("observed %d EventDiskHit events, want 4", diskEvents.Load())
	}

	// A repeat of a disk-served key is served by the disk tier again: a
	// disk hit is not copied into the LRU.
	if _, err := e2.Submit(ctx, testKey(0)); err != nil {
		t.Fatal(err)
	}
	if st := e2.Stats(); st.CacheHits != 0 || st.DiskHits != 5 || st.Started != 0 {
		t.Fatalf("stats = %+v, want the repeat served by the disk tier", st)
	}

	// A run this executor computed still repeats from the LRU.
	for range 2 {
		if _, err := e2.Submit(ctx, testKey(len(fresh))); err != nil {
			t.Fatal(err)
		}
	}
	if st := e2.Stats(); st.Started != 1 || st.CacheHits != 1 || st.DiskHits != 5 {
		t.Fatalf("stats = %+v, want the computed run executed once and repeated from the LRU", st)
	}
}

func TestDiskCacheVersionMismatchReruns(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()

	var calls atomic.Int64
	e1 := New(countingRunner(&calls), WithDiskCache(dir, "physics-1"))
	if _, err := e1.Submit(ctx, testKey(0)); err != nil {
		t.Fatal(err)
	}
	if err := e1.Close(); err != nil {
		t.Fatal(err)
	}

	e2 := New(countingRunner(&calls), WithDiskCache(dir, "physics-2"))
	defer e2.Close()
	if _, err := e2.Submit(ctx, testKey(0)); err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 2 {
		t.Fatalf("runner ran %d times, want 2 (version bump invalidates)", calls.Load())
	}
	if st := e2.Stats(); st.DiskHits != 0 || st.Started != 1 {
		t.Fatalf("stats = %+v, want a full rerun after the physics bump", st)
	}
	ds, ok := e2.DiskCacheStats()
	if !ok {
		t.Fatal("disk cache stats unavailable")
	}
	if ds.Stale != 1 {
		t.Fatalf("disk stats = %+v, want the old record counted stale", ds)
	}
}

func TestDiskCacheDegradedEmitsEventAndWarning(t *testing.T) {
	var degraded atomic.Int64
	// A path that cannot be a directory: a file stands in its way.
	dir := filepath.Join(t.TempDir(), "blocker")
	if err := os.WriteFile(dir, []byte("not a directory"), 0o644); err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int64
	e := New(countingRunner(&calls),
		WithDiskCache(dir+"/cache", "v"),
		WithObserver(func(ev Event) {
			if ev.Kind == EventDiskDegraded {
				degraded.Add(1)
			}
		}))
	defer e.Close()
	if e.DiskWarning() == "" {
		t.Fatal("want a disk warning on an unusable cache path")
	}
	if degraded.Load() != 1 {
		t.Fatalf("observed %d EventDiskDegraded events, want 1", degraded.Load())
	}
	// The executor still works, memory-only.
	if _, err := e.Submit(context.Background(), testKey(0)); err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 1 {
		t.Fatalf("runner ran %d times, want 1", calls.Load())
	}
}
