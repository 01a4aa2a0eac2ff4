// Command simbench runs the repository's three benchmark gates. Each
// mode measures one trajectory, writes it as a JSON report and, given a
// baseline report, enforces that trajectory's gate against it:
//
//   - mem: the live heap one fully streamed traced run retains at 1×,
//     10× and 100× the benchmark phase duration, and the peak RSS of a
//     short campaign (mem.go). The 100× figure must stay flat.
//   - cache: cold-write and warm-read throughput of the disk cache's
//     segment codec over a synthetic campaign (cache.go). The warm-read
//     rate has a floor.
//   - fleet: the wall time of a campaign of distinct governed runs at 1,
//     4, 8 and 16 workers, and its warm disk-cache replay (fleet.go). The
//     p8 speedup has a floor on hosts with at least 8 CPUs, and the
//     replay a ceiling.
//
// The simulator's own speed is the internal/sim benchmarks' (make
// bench), and a campaign's end to end is trafficbench's.
//
// Usage:
//
//	simbench [-short] [-out file] [-gate baseline.json] mem|cache|fleet
//
// -out defaults to BENCH_<mode>.json. -short shrinks the cache and fleet
// campaigns for CI; the mem mode has one size. A failed measurement or
// gate exits 1, a usage error 2.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
)

// report is the schema of every mode's report and of the committed
// baseline. A mode fills only its own fields, and its gate reads only
// those of the baseline.
type report struct {
	GoVersion string `json:"go_version,omitempty"`
	// BenchCPUs is runtime.NumCPU() on the measuring host. Every fleet
	// field below is only meaningful relative to it: 8 workers on 1 CPU
	// time-slice one core and lawfully show ~1× speedup.
	BenchCPUs int `json:"bench_cpus,omitempty"`

	// Fleet grid (fleet mode): wall time of a campaign of fleet_grid_runs
	// all-distinct governed cells — nothing coalesces, nothing memoises —
	// submitted as one batch at 1, 4, 8 and 16 workers, the p1/p8
	// speedup, and a warm replay of the same fleet against a populated
	// disk cache. See fleet.go.
	FleetGridRuns            int     `json:"fleet_grid_runs,omitempty"`
	FleetGridWallSecondsP1   float64 `json:"fleet_grid_wall_seconds_p1,omitempty"`
	FleetGridWallSecondsP4   float64 `json:"fleet_grid_wall_seconds_p4,omitempty"`
	FleetGridWallSecondsP8   float64 `json:"fleet_grid_wall_seconds_p8,omitempty"`
	FleetGridWallSecondsP16  float64 `json:"fleet_grid_wall_seconds_p16,omitempty"`
	FleetGridSpeedupP8       float64 `json:"fleet_grid_speedup_p8,omitempty"`
	FleetGridWallWarmSeconds float64 `json:"fleet_grid_wall_warm_seconds,omitempty"`

	// Disk-cache codec (cache mode): cold-write and warm-read throughput
	// of the binary v3 segment format over a synthetic campaign. See
	// cache.go.
	DiskCacheWriteRunsPerS float64 `json:"disk_cache_write_runs_per_s,omitempty"`
	DiskCacheReadRunsPerS  float64 `json:"disk_cache_read_runs_per_s,omitempty"`
	DiskCacheReadMBPerS    float64 `json:"disk_cache_read_mb_per_s,omitempty"`

	// Memory (mem mode): live-heap delta of one fully streamed traced run
	// at 1×/10×/100× the benchmark phase duration — flat by design — and
	// the process's peak RSS after a short measurement campaign. See
	// mem.go.
	RunPeakAllocBytes1x   float64 `json:"run_peak_alloc_bytes_1x,omitempty"`
	RunPeakAllocBytes10x  float64 `json:"run_peak_alloc_bytes_10x,omitempty"`
	RunPeakAllocBytes100x float64 `json:"run_peak_alloc_bytes_100x,omitempty"`
	CampaignPeakRSSBytes  float64 `json:"campaign_peak_rss_bytes,omitempty"`
}

// modes maps each mode to its measurement and to the gate it enforces.
var modes = map[string]struct {
	measure func(rep *report, short bool) error
	gate    func(baselinePath string, cur report) error
}{
	"mem":   {func(rep *report, _ bool) error { return measureMemInto(rep) }, gateMem},
	"cache": {measureCacheInto, gateCache},
	"fleet": {measureFleetInto, gateScalingAgainst},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stderr))
}

// run is the command line: it measures the mode named in args, writes
// the report and enforces the mode's gate, and returns the exit code.
func run(args []string, stderr io.Writer) int {
	fs := flag.NewFlagSet("simbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	short := fs.Bool("short", false, "shrink the cache and fleet campaigns for CI smoke runs")
	out := fs.String("out", "", "write the report to this file (default BENCH_<mode>.json)")
	gate := fs.String("gate", "", "enforce the mode's gate against this baseline report: exit 1 on a violation")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: simbench [-short] [-out file] [-gate baseline.json] mem|cache|fleet")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	name := fs.Arg(0)
	mode, ok := modes[name]
	if fs.NArg() != 1 || !ok {
		fs.Usage()
		return 2
	}
	if *out == "" {
		*out = "BENCH_" + name + ".json"
	}

	rep := report{GoVersion: runtime.Version()}
	if err := mode.measure(&rep, *short); err != nil {
		fmt.Fprintf(stderr, "simbench: %s: %v\n", name, err)
		return 1
	}
	blob, err := json.MarshalIndent(rep, "", "  ")
	if err == nil {
		err = os.WriteFile(*out, append(blob, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintln(stderr, "simbench:", err)
		return 1
	}
	if *gate != "" {
		if err := mode.gate(*gate, rep); err != nil {
			fmt.Fprintf(stderr, "simbench: %s gate: %v\n", name, err)
			return 1
		}
	}
	return 0
}
