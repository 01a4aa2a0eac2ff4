package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"dufp/internal/exec/diskcache"
	"dufp/internal/metrics"
	"dufp/internal/units"
)

// Disk-cache codec trajectory: the binary v3 segment format exists so a
// warm campaign replay spends its time on lookups, not on decoding.
// The cache mode writes a synthetic campaign through the real
// write-behind path (cold-write throughput), then times the full
// directory scan a fresh process performs at Open (warm-read
// throughput, in runs/s and segment MB/s). The read rate is gated: the
// cache gate fails the build when it falls past the committed
// baseline's headroom.

// cacheBenchRecords sizes the synthetic campaign; shortened in -short
// CI runs.
const cacheBenchRecords = 100_000

// cacheBenchReads is how often each directory scan is timed; the
// minimum is reported to shed filesystem-cache and GC noise.
const cacheBenchReads = 3

const cacheBenchPhysics = "cache-bench-physics-1"

var (
	cacheBenchApps = []string{"CG", "FT", "LU", "MG", "BT", "SP", "EP", "IS"}
	cacheBenchGovs = []string{"baseline", "duf", "dufp", "dufpf", "static-cap-110", "dnpc"}
)

// cacheBenchKey mimics a campaign's key distribution: app and governor
// names recur (exercising the read path's string interner), indices are
// distinct.
func cacheBenchKey(i int) diskcache.Key {
	return diskcache.Key{
		App:      cacheBenchApps[i%len(cacheBenchApps)],
		Governor: cacheBenchGovs[i%len(cacheBenchGovs)],
		Session:  "bench-session-0000000000000001",
		Idx:      i,
	}
}

// cacheBenchRun fills every column with distinct non-trivial floats so
// the codec does not get away with encoding zeros.
func cacheBenchRun(i int) metrics.Run {
	f := float64(i)
	return metrics.Run{
		App:          cacheBenchApps[i%len(cacheBenchApps)],
		Governor:     cacheBenchGovs[i%len(cacheBenchGovs)],
		Slowdown:     0.1 + f*1e-9,
		Time:         time.Duration(f*1e4) + 12*time.Second,
		PkgEnergy:    units.Energy(1234.5678901234567 + f/3),
		DramEnergy:   units.Energy(98.76543210987654 + f/7),
		AvgPkgPower:  units.Power(110.00000000000001 + f*1e-5),
		AvgDramPower: units.Power(13.37 + f*1e-5),
		AvgCoreFreq:  units.Frequency(2.1e9 - f),
		AvgUncore:    units.Frequency(1.9283746574839201e9 + f),
	}
}

// cacheScanWall times a fresh Open's full directory scan, returning the
// best wall seconds over cacheBenchReads repetitions and the number of
// records loaded.
func cacheScanWall(dir string) (secs, loaded float64, err error) {
	for rep := 0; rep < cacheBenchReads; rep++ {
		start := time.Now()
		c, oerr := diskcache.Open(dir, cacheBenchPhysics)
		if oerr != nil {
			return 0, 0, oerr
		}
		el := time.Since(start).Seconds()
		st := c.Stats()
		c.Close()
		if st.Corrupt != 0 || st.Loaded == 0 {
			return 0, 0, fmt.Errorf("cache bench scan: stats %+v", st)
		}
		loaded = float64(st.Loaded)
		if rep == 0 || el < secs {
			secs = el
		}
	}
	return secs, loaded, nil
}

// segmentBytes sums the sizes of the directory's segment files.
func segmentBytes(dir string) (float64, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "runs-*.seg"))
	if err != nil {
		return 0, err
	}
	var total float64
	for _, p := range paths {
		fi, err := os.Stat(p)
		if err != nil {
			return 0, err
		}
		total += float64(fi.Size())
	}
	return total, nil
}

// measureCacheInto fills the report's disk-cache codec fields.
func measureCacheInto(rep *report, short bool) error {
	n := cacheBenchRecords
	if short {
		n = cacheBenchRecords / 10
	}

	dir, err := os.MkdirTemp("", "dufp-cachebench-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	c, err := diskcache.Open(dir, cacheBenchPhysics)
	if err != nil {
		return err
	}
	if w := c.Warning(); w != "" {
		return fmt.Errorf("cache bench: %s", w)
	}
	start := time.Now()
	for i := 0; i < n; i++ {
		c.Put(cacheBenchKey(i), cacheBenchRun(i))
	}
	if err := c.Close(); err != nil {
		return err
	}
	writeWall := time.Since(start).Seconds()
	// Put never blocks: under pressure it drops rather than stall the
	// harness, so the written count is the denominator everywhere below.
	written := float64(c.Stats().Written)
	if written == 0 {
		return fmt.Errorf("cache bench: nothing written (stats %+v)", c.Stats())
	}
	rep.DiskCacheWriteRunsPerS = written / writeWall

	segMB, err := segmentBytes(dir)
	if err != nil {
		return err
	}
	secs, loaded, err := cacheScanWall(dir)
	if err != nil {
		return err
	}
	if loaded != written {
		return fmt.Errorf("cache bench: loaded %.0f of %.0f written", loaded, written)
	}
	rep.DiskCacheReadRunsPerS = loaded / secs
	rep.DiskCacheReadMBPerS = segMB / 1e6 / secs
	return nil
}

// cacheReadHeadroom is the gate's tolerance: warm decode throughput may
// wobble with runner load, but a fall past half the committed baseline
// means the binary read path lost its point.
const cacheReadHeadroom = 2.0

// gateCache enforces the warm-read rate against the committed baseline.
// A baseline without cache fields (predating the metric) gates nothing.
func gateCache(baselinePath string, cur report) error {
	raw, err := os.ReadFile(baselinePath)
	if err != nil {
		return err
	}
	var base report
	if err := json.Unmarshal(raw, &base); err != nil {
		return err
	}
	if base.DiskCacheReadRunsPerS <= 0 {
		return nil
	}
	if floor := base.DiskCacheReadRunsPerS / cacheReadHeadroom; cur.DiskCacheReadRunsPerS < floor {
		return fmt.Errorf("disk_cache_read_runs_per_s %.0f fell below %.0f (baseline %.0f / %.1f headroom)",
			cur.DiskCacheReadRunsPerS, floor, base.DiskCacheReadRunsPerS, cacheReadHeadroom)
	}
	fmt.Printf("cache gate ok: %.0f runs/s warm read (%.1f MB/s)\n",
		cur.DiskCacheReadRunsPerS, cur.DiskCacheReadMBPerS)
	return nil
}
