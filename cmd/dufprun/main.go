// Command dufprun runs one application under one governor on the simulated
// node and reports the paper's metrics, optionally against the default
// baseline and with a per-socket time-series trace.
//
// Usage:
//
//	dufprun -app CG -gov dufp -slowdown 10
//	dufprun -app HPL -gov duf -slowdown 5 -runs 10
//	dufprun -app CG -gov static -cap 110
//	dufprun -app CG -gov dufp -slowdown 10 -trace cg.csv
//	dufprun -app CG -gov dufp -slowdown 10 -timeline cg.jsonl
//	dufprun -app CG -gov dufp -slowdown 10 -spans cg_trace.json
//	dufprun -list
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"time"

	"dufp"
	"dufp/internal/trace"
	"dufp/internal/workload"
)

func main() {
	var (
		appName  = flag.String("app", "CG", "application to run (see -list)")
		appFile  = flag.String("app-file", "", "load the application from a JSON file instead of the suite")
		export   = flag.String("export", "", "write the selected application's JSON definition to this file and exit")
		gov      = flag.String("gov", "dufp", "governor: default, duf, dufp, dufpf, dnpc, static, static+duf")
		slowdown = flag.Float64("slowdown", 10, "tolerated slowdown in percent (duf/dufp)")
		capW     = flag.Float64("cap", 110, "static power cap in watts (static governors)")
		runs     = flag.Int("runs", 5, "repetitions (paper protocol: 10)")
		seed     = flag.Int64("seed", 42, "base seed")
		traceCSV = flag.String("trace", "", "write socket-0 trace of run 0 to this CSV file")
		timeline = flag.String("timeline", "", "write the run-0 decision timeline (events joined with trace samples) to this JSONL file")
		spans    = flag.String("spans", "", "write the run-0 span flight recording (Chrome trace-event JSON, opens in Perfetto) to this file")
		baseline = flag.Bool("baseline", true, "also run the default configuration and print ratios")
		list     = flag.Bool("list", false, "list applications and exit")
		cacheDir = flag.String("cache-dir", os.Getenv("DUFP_CACHE_DIR"), "persist completed runs under this directory and reuse them across invocations (default: $DUFP_CACHE_DIR)")
	)
	flag.Parse()

	if *list {
		for _, app := range dufp.Suite() {
			fmt.Printf("%-8s %-10s %s\n", app.Name, app.Class, app.Description)
		}
		return
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := run(ctx, params{
		cacheDir: *cacheDir,
		appName:  *appName,
		appFile:  *appFile,
		export:   *export,
		gov:      *gov,
		slowdown: *slowdown / 100,
		cap:      dufp.Power(*capW),
		runs:     *runs,
		seed:     *seed,
		traceCSV: *traceCSV,
		timeline: *timeline,
		spans:    *spans,
		baseline: *baseline,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "dufprun:", err)
		os.Exit(1)
	}
}

type params struct {
	appName, appFile, export, gov, traceCSV, timeline string
	cacheDir, spans                                   string
	slowdown                                          float64
	cap                                               dufp.Power
	runs                                              int
	seed                                              int64
	baseline                                          bool
}

// loadApp resolves the application from the suite or a JSON file.
func loadApp(p params) (dufp.App, error) {
	if p.appFile != "" {
		f, err := os.Open(p.appFile)
		if err != nil {
			return dufp.App{}, err
		}
		defer f.Close()
		return workload.ReadJSON(f)
	}
	app, err := dufp.AppNamed(p.appName)
	if err != nil {
		return dufp.App{}, fmt.Errorf("%w (try -list)", err)
	}
	return app, nil
}

func governor(name string, cfg dufp.ControlConfig, cap dufp.Power) (dufp.Governor, error) {
	switch strings.ToLower(name) {
	case "default", "none":
		return dufp.Baseline(), nil
	case "duf":
		return dufp.DUF(cfg), nil
	case "dufp":
		return dufp.DUFP(cfg), nil
	case "dnpc":
		return dufp.DNPC(cfg), nil
	case "dufpf", "dufp-f":
		return dufp.DUFPF(cfg), nil
	case "static":
		return dufp.StaticCap(cap, cap), nil
	case "static+duf":
		return dufp.StaticCapDUF(cfg, cap, cap), nil
	}
	return dufp.Governor{}, fmt.Errorf("unknown governor %q: %w", name, dufp.ErrBadConfig)
}

func run(ctx context.Context, p params) error {
	app, err := loadApp(p)
	if err != nil {
		return err
	}
	if p.export != "" {
		f, err := os.Create(p.export)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := workload.WriteJSON(f, app); err != nil {
			return err
		}
		fmt.Printf("wrote %s definition to %s\n", app.Name, p.export)
		return nil
	}
	session := dufp.NewSession(dufp.WithSeed(p.seed))
	if p.cacheDir != "" {
		// A persistent cache turns repeat invocations of the same
		// configuration into disk reads; Close flushes it before exit.
		executor := dufp.NewExecutor(dufp.ExecDiskCache(p.cacheDir))
		defer executor.Close()
		if w := executor.DiskWarning(); w != "" {
			fmt.Fprintln(os.Stderr, "dufprun:", w)
		}
		session = session.OnExecutor(executor)
	}

	cfg := dufp.DefaultControlConfig(p.slowdown)
	gov, err := governor(p.gov, cfg, p.cap)
	if err != nil {
		return err
	}

	sum, err := session.SummarizeCtx(ctx, app, gov, p.runs)
	if err != nil {
		return err
	}
	fmt.Printf("%s under %s (%d runs, outliers dropped):\n", app.Name, p.gov, p.runs)
	fmt.Printf("  time        %8.2f s   [%.2f, %.2f]\n", sum.Time.Mean, sum.Time.Min, sum.Time.Max)
	fmt.Printf("  proc power  %8.2f W   [%.2f, %.2f]\n", sum.PkgPower.Mean, sum.PkgPower.Min, sum.PkgPower.Max)
	fmt.Printf("  DRAM power  %8.2f W   [%.2f, %.2f]\n", sum.DramPower.Mean, sum.DramPower.Min, sum.DramPower.Max)
	fmt.Printf("  energy      %8.0f J   (CPU+DRAM)\n", sum.TotalEnergy.Mean)
	fmt.Printf("  avg core    %8.2f GHz, avg uncore %.2f GHz\n", sum.CoreFreq.Mean/1e9, sum.UncoreFreq.Mean/1e9)

	if p.baseline && p.gov != "default" {
		base, err := session.SummarizeCtx(ctx, app, dufp.Baseline(), p.runs)
		if err != nil {
			return err
		}
		cmp := dufp.CompareRuns(sum, base)
		fmt.Printf("vs default:\n")
		fmt.Printf("  slowdown    %+8.2f %%\n", cmp.TimeRatio.OverheadPercent())
		fmt.Printf("  proc power  %+8.2f %%\n", -cmp.PkgPowerRatio.SavingsPercent())
		fmt.Printf("  DRAM power  %+8.2f %%\n", -cmp.DramPowerRatio.SavingsPercent())
		fmt.Printf("  energy      %+8.2f %%\n", -cmp.TotalEnergyRatio.SavingsPercent())
	}

	if p.traceCSV != "" {
		// The trace streams into the CSV file as the run executes: no
		// recording is materialised, so memory stays flat however long
		// the run is.
		f, err := os.Create(p.traceCSV)
		if err != nil {
			return err
		}
		defer f.Close()
		sink := trace.NewCSVSink(f, 0)
		if _, err := session.Run(ctx, dufp.RunSpec{App: app, Governor: gov}, dufp.WithTraceSink(sink)); err != nil {
			return err
		}
		if err := sink.Err(); err != nil {
			return err
		}
		fmt.Printf("trace written to %s (%d points)\n", p.traceCSV, sink.Count())
	}

	if p.timeline == "" && p.spans == "" {
		return nil
	}
	// One recorded run serves both the timeline and the span trace.
	res, err := session.Run(ctx, dufp.RunSpec{App: app, Governor: gov}, dufp.WithRecord())
	if err != nil {
		return err
	}
	if p.timeline != "" {
		f, err := os.Create(p.timeline)
		if err != nil {
			return err
		}
		defer f.Close()
		tl := res.Timeline()
		if err := tl.WriteJSONL(f); err != nil {
			return err
		}
		fmt.Printf("timeline written to %s (%d entries, %d decisions)\n",
			p.timeline, len(tl.Entries), len(tl.Decisions()))
	}

	if p.spans != "" {
		f, err := os.Create(p.spans)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := res.SpanTrace.WriteTraceEvents(f); err != nil {
			return err
		}
		fmt.Printf("spans written to %s (total %v, %d stages, %d control rounds) — open in ui.perfetto.dev\n",
			p.spans, time.Duration(res.Spans.TotalNS).Round(time.Microsecond),
			len(res.Spans.Stages), res.Spans.Rounds)
	}
	return nil
}
