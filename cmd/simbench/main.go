// Command simbench measures the simulator's hot path and writes the
// repo's benchmark trajectory file, BENCH_sim.json: nanoseconds per
// simulated second on the fast and reference loops, allocations per
// tick, the wall time of the full Fig-3 experiment grid (plus its
// scaling across 1–8 executor workers and its warm disk-cache rerun),
// and the fleet grid — a campaign of distinct governed runs timed at
// 1/4/8/16 workers, the repo's multicore scaling trajectory (fleet.go). CI runs it at short iteration counts, compares
// against the committed baseline (report-only) and enforces the scaling
// gate; locally, `make bench` refreshes the numbers.
//
// Usage:
//
//	simbench -out BENCH_sim.json            # full measurement
//	simbench -short -out BENCH_sim.json     # CI smoke (reduced grid)
//	simbench -out new.json -compare reports/bench_baseline.json
//	simbench -fleet-grid -out BENCH_sim.json                   # refresh scaling fields only
//	simbench -fleet-grid -gate-scaling reports/bench_baseline.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"dufp"
	"dufp/internal/experiment"
	"dufp/internal/model"
	"dufp/internal/msr"
	"dufp/internal/obs/span"
	"dufp/internal/sim"
	"dufp/internal/units"
)

// report is the BENCH_sim.json schema. Lower is better everywhere except
// the *_speedup_* fields.
type report struct {
	GoVersion string `json:"go_version"`
	// BenchCPUs is runtime.NumCPU() on the measuring host. Every scaling
	// field below is only meaningful relative to it: 8 workers on 1 CPU
	// time-slice one core and lawfully show ~1× speedup.
	BenchCPUs                     int     `json:"bench_cpus"`
	StepPhysicsNsPerTick          float64 `json:"step_physics_ns_per_tick"`
	RunUngovernedNsPerSimsec      float64 `json:"run_ungoverned_ns_per_simsec"`
	RunUngovernedExactNsPerSimsec float64 `json:"run_ungoverned_exact_ns_per_simsec"`
	RunGovernedNsPerSimsec        float64 `json:"run_governed_ns_per_simsec"`
	RunGovernedSpansNsPerSimsec   float64 `json:"run_governed_spans_ns_per_simsec"`
	SpanOverheadPct               float64 `json:"span_overhead_pct"`
	AllocsPerTick                 float64 `json:"allocs_per_tick"`
	Fig3GridWallSeconds           float64 `json:"fig3_grid_wall_seconds"`
	FastSpeedupVsExact            float64 `json:"fast_speedup_vs_exact"`

	// Grid scaling: the Fig-3 campaign wall time with the executor
	// bounded to 1, 2, 4 and 8 workers, and the warm rerun of the same
	// campaign against a populated disk cache.
	Fig3GridWallSecondsP1   float64 `json:"fig3_grid_wall_seconds_p1"`
	Fig3GridWallSecondsP2   float64 `json:"fig3_grid_wall_seconds_p2"`
	Fig3GridWallSecondsP4   float64 `json:"fig3_grid_wall_seconds_p4"`
	Fig3GridWallSecondsP8   float64 `json:"fig3_grid_wall_seconds_p8"`
	Fig3GridWallWarmSeconds float64 `json:"fig3_grid_wall_warm_seconds"`

	// Fleet grid (bench-scaling): wall time of a campaign of
	// fleet_grid_runs all-distinct governed cells — nothing coalesces,
	// nothing memoises — submitted as one batch at 1, 4, 8 and 16
	// workers, the p1/p8 speedup, and a warm replay of the same fleet
	// against a populated disk cache. Gated by -gate-scaling. See
	// fleet.go.
	FleetGridRuns            int     `json:"fleet_grid_runs,omitempty"`
	FleetGridWallSecondsP1   float64 `json:"fleet_grid_wall_seconds_p1,omitempty"`
	FleetGridWallSecondsP4   float64 `json:"fleet_grid_wall_seconds_p4,omitempty"`
	FleetGridWallSecondsP8   float64 `json:"fleet_grid_wall_seconds_p8,omitempty"`
	FleetGridWallSecondsP16  float64 `json:"fleet_grid_wall_seconds_p16,omitempty"`
	FleetGridSpeedupP8       float64 `json:"fleet_grid_speedup_p8,omitempty"`
	FleetGridWallWarmSeconds float64 `json:"fleet_grid_wall_warm_seconds,omitempty"`

	// Disk-cache codec trajectory (bench-cache): cold-write and warm-read
	// throughput of the binary v3 segment format over a synthetic
	// campaign. The read rate is gated by -gate-cache. See cache.go.
	DiskCacheWriteRunsPerS float64 `json:"disk_cache_write_runs_per_s,omitempty"`
	DiskCacheReadRunsPerS  float64 `json:"disk_cache_read_runs_per_s,omitempty"`
	DiskCacheReadMBPerS    float64 `json:"disk_cache_read_mb_per_s,omitempty"`

	// Memory trajectory (bench-mem): live-heap delta of one fully
	// streamed traced run at 1×/10×/100× the benchmark phase duration —
	// flat by design, gated by -gate — and the process's peak RSS after
	// a short measurement campaign. See mem.go.
	RunPeakAllocBytes1x   float64 `json:"run_peak_alloc_bytes_1x,omitempty"`
	RunPeakAllocBytes10x  float64 `json:"run_peak_alloc_bytes_10x,omitempty"`
	RunPeakAllocBytes100x float64 `json:"run_peak_alloc_bytes_100x,omitempty"`
	CampaignPeakRSSBytes  float64 `json:"campaign_peak_rss_bytes,omitempty"`
}

const simSecs = 2.0

func steadyShape() model.PhaseShape {
	return model.PhaseShape{
		Name:         "steady",
		FlopFrac:     0.2,
		MemFrac:      0.4,
		ComputeShare: 0.7,
		Overlap:      0.4,
		BWUncoreKnee: 2.0 * units.Gigahertz,
		Duration:     time.Duration(simSecs * float64(time.Second)),
	}
}

func newMachine() (*sim.Machine, error) {
	m, err := sim.New(sim.DefaultConfig())
	if err != nil {
		return nil, err
	}
	return m, m.Load([]model.PhaseShape{steadyShape()})
}

// nsPerSimsec benchmarks one full Run per iteration and reports
// nanoseconds of wall time per simulated second.
func nsPerSimsec(opts sim.RunOpts) (float64, error) {
	return nsPerSimsecF(func() sim.RunOpts { return opts })
}

// nsPerSimsecF is nsPerSimsec for runs that need per-iteration state —
// a fresh span trace, say. The factory runs with the timer stopped.
func nsPerSimsecF(mkOpts func() sim.RunOpts) (float64, error) {
	m, err := newMachine()
	if err != nil {
		return 0, err
	}
	var runErr error
	r := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			if err := m.Load([]model.PhaseShape{steadyShape()}); err != nil {
				runErr = err
				return
			}
			opts := mkOpts()
			b.StartTimer()
			if _, err := m.Run(opts); err != nil {
				runErr = err
				return
			}
		}
	})
	if runErr != nil {
		return 0, runErr
	}
	return float64(r.NsPerOp()) / simSecs, nil
}

// capGovernor reprograms a fixed power cap every round — the minimal
// realistic governor, keeping decision rounds on the run's event horizon.
type capGovernor struct {
	m   *sim.Machine
	cpu int
	raw uint64
}

func (g *capGovernor) Tick(time.Duration) error {
	return g.m.MSR().Write(g.cpu, msr.MSRPkgPowerLimit, g.raw)
}

func governedOpts(m *sim.Machine) sim.RunOpts {
	raw := msr.EncodePkgPowerLimit(msr.DefaultUnits(), msr.PkgPowerLimit{
		PL1: msr.PowerLimit{Limit: 110 * units.Watt, Window: 1, Enabled: true},
		PL2: msr.PowerLimit{Limit: 130 * units.Watt, Window: 0.01, Enabled: true},
	})
	govs := make([]sim.Governor, m.Sockets())
	for i := range govs {
		govs[i] = &capGovernor{m: m, cpu: m.Socket(i).CPU0(), raw: raw}
	}
	return sim.RunOpts{ControlPeriod: 200 * time.Millisecond, Governors: govs}
}

// allocsPerTick measures steady-state allocations per physics tick as the
// allocation difference between a 2 s and a 1 s run (setup cost cancels).
func allocsPerTick() (float64, error) {
	m, err := sim.New(sim.DefaultConfig())
	if err != nil {
		return 0, err
	}
	measure := func(d time.Duration) float64 {
		return testing.AllocsPerRun(5, func() {
			sh := steadyShape()
			sh.Duration = d
			if lerr := m.Load([]model.PhaseShape{sh}); lerr != nil {
				err = lerr
				return
			}
			if _, rerr := m.Run(sim.RunOpts{}); rerr != nil {
				err = rerr
				return
			}
		})
	}
	a1, a2 := measure(time.Second), measure(2*time.Second)
	if err != nil {
		return 0, err
	}
	return (a2 - a1) / 1000, nil // 1000 extra ticks in the 2 s run
}

// gridOpts is the benchmark campaign configuration; every grid
// measurement uses it with a fresh executor so no memo state leaks
// between timings.
func gridOpts(short bool) experiment.Options {
	opts := experiment.DefaultOptions()
	opts.Runs = 2
	opts.Session.Seed = 42
	opts.Tolerances = []float64{0.10}
	if short {
		opts.Runs = 1
		opts.Apps = []string{"CG"}
	}
	return opts
}

// gridWall times the full Fig-3 measurement campaign on a fresh executor
// (no warm memo cache). Extra options bound the workers or attach the
// disk cache for the scaling and warm-rerun measurements.
func gridWall(short bool, eopts ...dufp.ExecutorOption) (float64, error) {
	opts := gridOpts(short)
	executor := dufp.NewExecutor(eopts...)
	defer executor.Close()
	if w := executor.DiskWarning(); w != "" {
		return 0, fmt.Errorf("gridWall: %s", w)
	}
	opts.Executor = executor
	start := time.Now()
	if _, err := experiment.RunGrid(opts); err != nil {
		return 0, err
	}
	return time.Since(start).Seconds(), nil
}

// gridWallWarm populates a throwaway disk cache with one campaign, then
// times the identical campaign on a fresh executor that can only satisfy
// it from disk.
func gridWallWarm(short bool) (float64, error) {
	dir, err := os.MkdirTemp("", "dufp-simbench-cache-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	if _, err := gridWall(short, dufp.ExecDiskCache(dir)); err != nil {
		return 0, err
	}
	return gridWall(short, dufp.ExecDiskCache(dir))
}

func measure(short bool, cacheDir string) (report, error) {
	var rep report
	rep.GoVersion = runtime.Version()
	var err error
	if rep.RunUngovernedNsPerSimsec, err = nsPerSimsec(sim.RunOpts{}); err != nil {
		return rep, err
	}
	if rep.RunUngovernedExactNsPerSimsec, err = nsPerSimsec(sim.RunOpts{ExactLoop: true}); err != nil {
		return rep, err
	}
	// The reference loop advances 1000 ticks per simulated second, so its
	// per-simulated-second cost is the per-tick cost ×1000.
	rep.StepPhysicsNsPerTick = rep.RunUngovernedExactNsPerSimsec / 1000
	m, err := newMachine()
	if err != nil {
		return rep, err
	}
	govOpts := governedOpts(m)
	if rep.RunGovernedNsPerSimsec, err = nsPerSimsec(govOpts); err != nil {
		return rep, err
	}
	// Same governed run with the span flight recorder attached: the
	// delta is the recorder's cost on the realistic hot path (budget:
	// < 3%). A fresh trace per iteration, created off the clock.
	if rep.RunGovernedSpansNsPerSimsec, err = nsPerSimsecF(func() sim.RunOpts {
		opts := governedOpts(m)
		opts.Spans = span.New("bench")
		return opts
	}); err != nil {
		return rep, err
	}
	if rep.RunGovernedNsPerSimsec > 0 {
		rep.SpanOverheadPct = (rep.RunGovernedSpansNsPerSimsec/rep.RunGovernedNsPerSimsec - 1) * 100
	}
	if rep.AllocsPerTick, err = allocsPerTick(); err != nil {
		return rep, err
	}
	// With -cache-dir, the headline grid measurement runs against the
	// persistent cache: a first invocation populates it (cold), a second
	// one over the same directory reads it back (warm) — that pair is
	// what CI uploads. The scaling measurements below stay cache-free so
	// they keep measuring compute, not disk.
	var gridEopts []dufp.ExecutorOption
	if cacheDir != "" {
		gridEopts = append(gridEopts, dufp.ExecDiskCache(cacheDir))
	}
	if rep.Fig3GridWallSeconds, err = gridWall(short, gridEopts...); err != nil {
		return rep, err
	}
	if rep.RunUngovernedNsPerSimsec > 0 {
		rep.FastSpeedupVsExact = rep.RunUngovernedExactNsPerSimsec / rep.RunUngovernedNsPerSimsec
	}

	for _, c := range []struct {
		workers int
		dst     *float64
	}{
		{1, &rep.Fig3GridWallSecondsP1},
		{2, &rep.Fig3GridWallSecondsP2},
		{4, &rep.Fig3GridWallSecondsP4},
		{8, &rep.Fig3GridWallSecondsP8},
	} {
		if *c.dst, err = gridWall(short, dufp.ExecWorkers(c.workers)); err != nil {
			return rep, err
		}
	}
	if rep.Fig3GridWallWarmSeconds, err = gridWallWarm(short); err != nil {
		return rep, err
	}
	if err = measureFleetInto(&rep, short); err != nil {
		return rep, err
	}
	if err = measureCacheInto(&rep, short); err != nil {
		return rep, err
	}
	if err = measureMemInto(&rep); err != nil {
		return rep, err
	}
	return rep, nil
}

// compare prints a benchstat-style old/new table. It never fails the
// process: the trajectory is report-only.
func compare(baselinePath string, cur report) error {
	raw, err := os.ReadFile(baselinePath)
	if err != nil {
		return err
	}
	var base report
	if err := json.Unmarshal(raw, &base); err != nil {
		return err
	}
	type row struct {
		name     string
		old, new float64
		downGood bool
		scaling  bool // part of the multicore scaling trajectory
	}
	rows := []row{
		{"step_physics_ns_per_tick", base.StepPhysicsNsPerTick, cur.StepPhysicsNsPerTick, true, false},
		{"run_ungoverned_ns_per_simsec", base.RunUngovernedNsPerSimsec, cur.RunUngovernedNsPerSimsec, true, false},
		{"run_ungoverned_exact_ns_per_simsec", base.RunUngovernedExactNsPerSimsec, cur.RunUngovernedExactNsPerSimsec, true, false},
		{"run_governed_ns_per_simsec", base.RunGovernedNsPerSimsec, cur.RunGovernedNsPerSimsec, true, false},
		{"run_governed_spans_ns_per_simsec", base.RunGovernedSpansNsPerSimsec, cur.RunGovernedSpansNsPerSimsec, true, false},
		{"span_overhead_pct", base.SpanOverheadPct, cur.SpanOverheadPct, true, false},
		{"allocs_per_tick", base.AllocsPerTick, cur.AllocsPerTick, true, false},
		{"fig3_grid_wall_seconds", base.Fig3GridWallSeconds, cur.Fig3GridWallSeconds, true, false},
		{"fast_speedup_vs_exact", base.FastSpeedupVsExact, cur.FastSpeedupVsExact, false, false},
		{"fig3_grid_wall_seconds_p1", base.Fig3GridWallSecondsP1, cur.Fig3GridWallSecondsP1, true, true},
		{"fig3_grid_wall_seconds_p2", base.Fig3GridWallSecondsP2, cur.Fig3GridWallSecondsP2, true, true},
		{"fig3_grid_wall_seconds_p4", base.Fig3GridWallSecondsP4, cur.Fig3GridWallSecondsP4, true, true},
		{"fig3_grid_wall_seconds_p8", base.Fig3GridWallSecondsP8, cur.Fig3GridWallSecondsP8, true, true},
		{"fig3_grid_wall_warm_seconds", base.Fig3GridWallWarmSeconds, cur.Fig3GridWallWarmSeconds, true, true},
		{"fleet_grid_wall_seconds_p1", base.FleetGridWallSecondsP1, cur.FleetGridWallSecondsP1, true, true},
		{"fleet_grid_wall_seconds_p4", base.FleetGridWallSecondsP4, cur.FleetGridWallSecondsP4, true, true},
		{"fleet_grid_wall_seconds_p8", base.FleetGridWallSecondsP8, cur.FleetGridWallSecondsP8, true, true},
		{"fleet_grid_wall_seconds_p16", base.FleetGridWallSecondsP16, cur.FleetGridWallSecondsP16, true, true},
		{"fleet_grid_speedup_p8", base.FleetGridSpeedupP8, cur.FleetGridSpeedupP8, false, true},
		{"fleet_grid_wall_warm_seconds", base.FleetGridWallWarmSeconds, cur.FleetGridWallWarmSeconds, true, true},
		{"disk_cache_write_runs_per_s", base.DiskCacheWriteRunsPerS, cur.DiskCacheWriteRunsPerS, false, false},
		{"disk_cache_read_runs_per_s", base.DiskCacheReadRunsPerS, cur.DiskCacheReadRunsPerS, false, false},
		{"disk_cache_read_mb_per_s", base.DiskCacheReadMBPerS, cur.DiskCacheReadMBPerS, false, false},
		{"run_peak_alloc_bytes_1x", base.RunPeakAllocBytes1x, cur.RunPeakAllocBytes1x, true, false},
		{"run_peak_alloc_bytes_10x", base.RunPeakAllocBytes10x, cur.RunPeakAllocBytes10x, true, false},
		{"run_peak_alloc_bytes_100x", base.RunPeakAllocBytes100x, cur.RunPeakAllocBytes100x, true, false},
		{"campaign_peak_rss_bytes", base.CampaignPeakRSSBytes, cur.CampaignPeakRSSBytes, true, false},
	}
	// Fleet walls are only comparable between equal fleet sizes; a short
	// (100-run) report against the full (1000-run) baseline would print
	// a meaningless -90% on every fleet row.
	fleetComparable := base.FleetGridRuns == cur.FleetGridRuns
	fmt.Printf("%-36s %12s %12s %9s\n", "metric", "old", "new", "delta")
	var scalingWorse []string
	for _, r := range rows {
		if strings.HasPrefix(r.name, "fleet_grid_wall") && !fleetComparable {
			fmt.Printf("%-36s %12.1f %12.1f %9s\n", r.name, r.old, r.new,
				fmt.Sprintf("n/a (%d- vs %d-run fleet)", base.FleetGridRuns, cur.FleetGridRuns))
			continue
		}
		delta := "n/a"
		if r.old != 0 {
			pct := (r.new - r.old) / r.old * 100
			mark := ""
			if (r.downGood && pct > 10) || (!r.downGood && pct < -10) {
				mark = "  (worse)"
				if r.scaling && r.new != 0 {
					scalingWorse = append(scalingWorse, r.name)
				}
			}
			delta = fmt.Sprintf("%+8.1f%%%s", pct, mark)
		}
		fmt.Printf("%-36s %12.1f %12.1f %9s\n", r.name, r.old, r.new, delta)
	}
	// Scaling fields get called out explicitly: a quiet "(worse)" in the
	// table is how the p1==p8 wall went unnoticed for five releases. The
	// hard stop for CI is -gate-scaling; compare itself stays report-only.
	if len(scalingWorse) > 0 {
		fmt.Printf("WARNING: multicore scaling regressed vs baseline: %v (bench_cpus=%d; hard gate: -gate-scaling)\n",
			scalingWorse, cur.BenchCPUs)
	}
	return nil
}

func main() {
	var (
		out           = flag.String("out", "BENCH_sim.json", "write the benchmark report to this file ('-' for stdout)")
		baseline      = flag.String("compare", "", "print a benchstat-style comparison against this baseline JSON (report-only)")
		short         = flag.Bool("short", false, "reduced grid for CI smoke runs")
		cacheDir      = flag.String("cache-dir", os.Getenv("DUFP_CACHE_DIR"), "run the headline grid measurement against this persistent run cache; invoke twice with the same directory for a cold/warm pair (default: $DUFP_CACHE_DIR)")
		memOnly       = flag.Bool("mem-only", false, "measure only the memory trajectory and merge it into -out, preserving the file's other fields")
		gate          = flag.String("gate", "", "enforce the memory trajectory against this baseline JSON: exit non-zero on a flatness or regression violation")
		cacheOnly     = flag.Bool("cache-only", false, "measure only the disk-cache codec throughput and merge it into -out, preserving the file's other fields")
		gateCachePath = flag.String("gate-cache", "", "enforce disk_cache_read_runs_per_s against this baseline JSON: exit non-zero on a regression past headroom")
		fleetGrid     = flag.Bool("fleet-grid", false, "measure only the fleet-grid scaling trajectory and merge it into -out, preserving the file's other fields")
		gateScaling   = flag.String("gate-scaling", "", "enforce the fleet-grid scaling trajectory against this baseline JSON: exit non-zero when fleet_grid_speedup_p8 < 2.5 (on hosts with >= 8 CPUs) or the warm fleet replay regresses past headroom")
	)
	flag.Parse()

	var rep report
	var err error
	if *memOnly || *cacheOnly || *fleetGrid {
		// Merge mode: keep whatever the existing report already measured.
		if raw, rerr := os.ReadFile(*out); rerr == nil {
			if err := json.Unmarshal(raw, &rep); err != nil {
				fmt.Fprintln(os.Stderr, "simbench:", err)
				os.Exit(1)
			}
		}
		rep.GoVersion = runtime.Version()
		switch {
		case *memOnly:
			err = measureMemInto(&rep)
		case *cacheOnly:
			err = measureCacheInto(&rep, *short)
		default:
			err = measureFleetInto(&rep, *short)
		}
	} else {
		rep, err = measure(*short, *cacheDir)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "simbench:", err)
		os.Exit(1)
	}
	blob, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "simbench:", err)
		os.Exit(1)
	}
	blob = append(blob, '\n')
	if *out == "-" {
		os.Stdout.Write(blob)
	} else if err := os.WriteFile(*out, blob, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "simbench:", err)
		os.Exit(1)
	}
	if *baseline != "" {
		if err := compare(*baseline, rep); err != nil {
			fmt.Fprintln(os.Stderr, "simbench: compare:", err)
			os.Exit(1)
		}
	}
	if *gate != "" {
		if err := gateMem(*gate, rep); err != nil {
			fmt.Fprintln(os.Stderr, "simbench: mem gate:", err)
			os.Exit(1)
		}
		fmt.Printf("mem gate ok: 1x %.0f B, 10x %.0f B, 100x %.0f B live heap; campaign peak RSS %.0f B\n",
			rep.RunPeakAllocBytes1x, rep.RunPeakAllocBytes10x, rep.RunPeakAllocBytes100x, rep.CampaignPeakRSSBytes)
	}
	if *gateCachePath != "" {
		if err := gateCache(*gateCachePath, rep); err != nil {
			fmt.Fprintln(os.Stderr, "simbench: cache gate:", err)
			os.Exit(1)
		}
		fmt.Printf("cache gate ok: %.0f runs/s warm read (%.1f MB/s)\n",
			rep.DiskCacheReadRunsPerS, rep.DiskCacheReadMBPerS)
	}
	if *gateScaling != "" {
		if err := gateScalingAgainst(*gateScaling, rep); err != nil {
			fmt.Fprintln(os.Stderr, "simbench: scaling gate:", err)
			os.Exit(1)
		}
	}
}
