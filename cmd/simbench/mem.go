package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"syscall"
	"time"

	"dufp"
	"dufp/internal/experiment"
	"dufp/internal/model"
	"dufp/internal/sim"
	"dufp/internal/trace"
	"dufp/internal/units"
)

// Memory trajectory: the streaming results pipeline's core claim is that
// a traced run retains O(1) heap however long it lasts, because samples
// flow through sinks instead of accumulating in a recorder. The mem mode
// measures that directly — the live-heap delta of a fully streamed
// traced run at 1×, 10× and 100× the benchmark phase duration — plus
// the process's peak RSS after a measurement campaign. The 1×/10×/100×
// triple is the gate: if someone reintroduces slice accumulation on the
// streaming path, the 100× figure grows ~100-fold and the mem gate
// fails the build.

// steadyShape is the benchmark phase: 2 s at one steady operating
// point, the shape the internal/sim benchmarks run too.
func steadyShape() model.PhaseShape {
	return model.PhaseShape{
		Name:         "steady",
		FlopFrac:     0.2,
		MemFrac:      0.4,
		ComputeShare: 0.7,
		Overlap:      0.4,
		BWUncoreKnee: 2.0 * units.Gigahertz,
		Duration:     2 * time.Second,
	}
}

// memAttempts is how many times each live-heap delta is sampled; the
// minimum is reported to shed GC noise.
const memAttempts = 3

// streamedRunLiveBytes runs one traced run of scale× the benchmark
// phase with the trace streamed into the O(1) consumers (summary,
// window statistics, CSV to a discarded writer) and returns the
// live-heap delta in bytes with the sinks still reachable.
func streamedRunLiveBytes(scale int) (float64, error) {
	cfg := sim.DefaultConfig()
	cfg.PowerJitterSD = 0
	m, err := sim.New(cfg)
	if err != nil {
		return 0, err
	}
	shape := steadyShape()
	shape.Duration = time.Duration(scale) * shape.Duration

	best := -1.0
	for attempt := 0; attempt < memAttempts; attempt++ {
		if err := m.Load([]model.PhaseShape{shape}); err != nil {
			return 0, err
		}
		sum := trace.NewSummarizer()
		ws := trace.NewWindowStats(0, shape.Duration/2)
		csv := trace.NewCSVSink(io.Discard, 0)
		sink := trace.Tee(sum, ws, csv)

		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		opts := sim.RunOpts{TraceEvery: 10, Trace: trace.Hook(sink)}
		if _, err := m.Run(opts); err != nil {
			return 0, err
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		if err := csv.Err(); err != nil {
			return 0, err
		}
		delta := float64(after.HeapAlloc) - float64(before.HeapAlloc)
		if delta < 0 {
			delta = 0
		}
		if best < 0 || delta < best {
			best = delta
		}
		// The sinks must survive the post-run GC: their retained state is
		// exactly what is being measured.
		runtime.KeepAlive(sink)
	}
	return best, nil
}

// campaignPeakRSSBytes runs the short Fig-3 measurement campaign — CG
// under baseline, DUF and DUFP at 10 %, one run each — on a fresh
// executor and returns the process's peak resident set afterwards. RSS
// high water is process-wide, so the figure covers the streamed runs
// before it too.
func campaignPeakRSSBytes() (float64, error) {
	opts := experiment.DefaultOptions()
	opts.Runs = 1
	opts.Apps = []string{"CG"}
	opts.Session.Seed = 42
	opts.Tolerances = []float64{0.10}
	opts.Executor = dufp.NewExecutor()
	defer opts.Executor.Close()
	if _, err := experiment.RunGrid(opts); err != nil {
		return 0, err
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	return float64(ru.Maxrss) * 1024, nil // Linux reports kilobytes
}

// measureMemInto fills the report's memory-trajectory fields.
func measureMemInto(rep *report) error {
	for _, c := range []struct {
		scale int
		dst   *float64
	}{
		{1, &rep.RunPeakAllocBytes1x},
		{10, &rep.RunPeakAllocBytes10x},
		{100, &rep.RunPeakAllocBytes100x},
	} {
		var err error
		if *c.dst, err = streamedRunLiveBytes(c.scale); err != nil {
			return err
		}
	}
	var err error
	rep.CampaignPeakRSSBytes, err = campaignPeakRSSBytes()
	return err
}

// Gate headroom. The flatness bound is the load-bearing one: a traced
// run that accumulates samples again grows the 100× figure by the full
// trace size (megabytes), far beyond the slack. The baseline bounds are
// generous because live-heap deltas on shared runners are noisy.
const (
	memFlatSlackBytes   = 1 << 20 // absolute slack on the 100× vs 1× bound
	memAllocHeadroom    = 2.0     // vs committed baseline
	memRSSHeadroom      = 1.5     // vs committed baseline
	memFlatnessHeadroom = 1.25    // 100× vs 1× ratio
)

// gateMem enforces the memory trajectory: the 100× run's retained heap
// must stay within flatness headroom of the 1× run's, and when the
// committed baseline carries memory fields, the current figures must not
// regress past the generous headroom. A violation is an error — CI fails.
func gateMem(baselinePath string, cur report) error {
	if limit := cur.RunPeakAllocBytes1x*memFlatnessHeadroom + memFlatSlackBytes; cur.RunPeakAllocBytes100x > limit {
		return fmt.Errorf("run_peak_alloc_bytes_100x %.0f exceeds %.0f (%.2f× the 1x figure %.0f plus %d slack): traced-run memory is no longer O(1) in duration",
			cur.RunPeakAllocBytes100x, limit, memFlatnessHeadroom, cur.RunPeakAllocBytes1x, memFlatSlackBytes)
	}
	raw, err := os.ReadFile(baselinePath)
	if err != nil {
		return err
	}
	var base report
	if err := json.Unmarshal(raw, &base); err != nil {
		return err
	}
	if base.RunPeakAllocBytes100x > 0 && cur.RunPeakAllocBytes100x > base.RunPeakAllocBytes100x*memAllocHeadroom {
		return fmt.Errorf("run_peak_alloc_bytes_100x %.0f regressed past %.1f× baseline %.0f",
			cur.RunPeakAllocBytes100x, memAllocHeadroom, base.RunPeakAllocBytes100x)
	}
	if base.CampaignPeakRSSBytes > 0 && cur.CampaignPeakRSSBytes > base.CampaignPeakRSSBytes*memRSSHeadroom {
		return fmt.Errorf("campaign_peak_rss_bytes %.0f regressed past %.1f× baseline %.0f",
			cur.CampaignPeakRSSBytes, memRSSHeadroom, base.CampaignPeakRSSBytes)
	}
	fmt.Printf("mem gate ok: 1x %.0f B, 10x %.0f B, 100x %.0f B live heap; campaign peak RSS %.0f B\n",
		cur.RunPeakAllocBytes1x, cur.RunPeakAllocBytes10x, cur.RunPeakAllocBytes100x, cur.CampaignPeakRSSBytes)
	return nil
}
