// Command dufpbench regenerates the paper's tables and figures on the
// simulated node.
//
// Usage:
//
//	dufpbench -fig all                 # everything, paper protocol (10 runs)
//	dufpbench -fig 3b -runs 5          # one figure, fewer repetitions
//	dufpbench -fig 1a -apps CG         # motivation study
//	dufpbench -fig 5 -trace-csv out/   # frequency traces as CSV
//	dufpbench -fig all -md             # markdown rendering (EXPERIMENTS.md)
//	dufpbench -fig all -progress       # live scheduler progress on stderr
//	dufpbench -fig all -stats -        # executor statistics as JSON
//	dufpbench -faults -apps CG -runs 2 # fault-injection robustness grid
//
// -listen serves the campaign over the same surface cmd/dufpd exposes:
// the /v1 Run API plus /metrics, /metrics.json and /debug/pprof/, from
// dufpd's one handler — it is a thin alias for an embedded dufpd
// sharing the invocation's executor (and so its caches), minus the
// campaign journal.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"time"

	"dufp"
	"dufp/internal/api"
	"dufp/internal/experiment"
	"dufp/internal/report"
	"dufp/internal/trace"
)

func main() { os.Exit(benchMain()) }

// benchMain is main's body with an exit code, so deferred cleanups —
// notably the profile writers — run before the process exits.
func benchMain() int {
	var (
		fig      = flag.String("fig", "all", "artefact to regenerate: table1, 1a, 1b, 1c, 3a, 3b, 3c, 4, 5, claims, sweep, period, pathology, autotune, all")
		runs     = flag.Int("runs", 10, "repetitions per configuration (paper: 10)")
		apps     = flag.String("apps", "", "comma-separated application subset (default: full suite)")
		seed     = flag.Int64("seed", 42, "base seed of the measurement campaign")
		md       = flag.Bool("md", false, "render markdown instead of aligned text")
		traceCSV = flag.String("trace-csv", "", "directory to write Fig 5 frequency traces as CSV")
		workers  = flag.Int("parallel", 0, "max concurrent runs (default: GOMAXPROCS)")
		bars     = flag.Bool("bars", false, "include [min, max] error bars in the grid tables")
		html     = flag.String("html", "", "write the full campaign as an HTML report (charts + tables) to this file")
		progress = flag.Bool("progress", false, "print live scheduler progress to stderr")
		stats    = flag.String("stats", "", "write executor statistics as JSON to this file ('-' for stdout)")
		listen   = flag.String("listen", "", "serve the Run API and live introspection on this address (/v1, /metrics, /metrics.json, /debug/pprof/), e.g. :8080")
		faults   = flag.Bool("faults", false, "run the fault-injection robustness grid (guarded DUFP under each fault level) instead of a figure")
		cacheDir = flag.String("cache-dir", os.Getenv("DUFP_CACHE_DIR"), "persist completed runs under this directory and reuse them across invocations (default: $DUFP_CACHE_DIR)")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile of the campaign to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile to this file at exit")
	)
	flag.Parse()

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dufpbench:", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "dufpbench:", err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintln(os.Stderr, "dufpbench:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle live objects before the snapshot
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "dufpbench:", err)
			}
		}()
	}

	// Interrupt cancels the campaign between decision rounds.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	// All tables of the invocation share one executor, so cross-table
	// requests (a sweep after a grid, say) are served from its memo cache.
	// A cache directory adds the persistent tier, which also serves runs
	// recorded by previous invocations.
	executor := dufp.SharedExecutor()
	if *workers > 0 || *cacheDir != "" {
		var eopts []dufp.ExecutorOption
		if *workers > 0 {
			eopts = append(eopts, dufp.ExecWorkers(*workers))
		}
		if *cacheDir != "" {
			eopts = append(eopts, dufp.ExecDiskCache(*cacheDir))
		}
		executor = dufp.NewExecutor(eopts...)
		defer executor.Close()
		if w := executor.DiskWarning(); w != "" {
			fmt.Fprintln(os.Stderr, "dufpbench:", w)
		}
	}
	if *progress {
		executor.SetObserver(progressObserver())
		defer executor.SetObserver(nil)
		// With live progress on, executor statistics are also emitted
		// periodically instead of only at exit.
		stop := statsTicker(ctx, executor)
		defer stop()
	}

	opts := experiment.DefaultOptions()
	opts.Runs = *runs
	opts.Parallelism = *workers
	opts.Session.Seed = *seed
	opts.ErrorBars = *bars
	opts.Context = ctx
	opts.Executor = executor
	if *apps != "" {
		opts.Apps = strings.Split(*apps, ",")
	}

	// -listen embeds the dufpd surface: the daemon shares the
	// invocation's executor, so figure campaigns and API submissions
	// feed the same caches.
	if *listen != "" {
		daemon, derr := api.New(api.Config{Session: opts.Session, Executor: executor})
		if derr != nil {
			fmt.Fprintln(os.Stderr, "dufpbench:", derr)
			return 1
		}
		defer daemon.Close()
		go func() {
			if lerr := http.ListenAndServe(*listen, daemon.FullHandler()); lerr != nil {
				fmt.Fprintln(os.Stderr, "dufpbench: listen:", lerr)
			}
		}()
		fmt.Fprintf(os.Stderr, "serving Run API and introspection on %s (/v1, /metrics, /metrics.json, /debug/pprof/)\n", *listen)
	}

	err := func() error {
		if *faults {
			return runFaults(opts, *md)
		}
		if *html != "" {
			return writeHTML(opts, *html)
		}
		return run(opts, *fig, *md, *traceCSV)
	}()
	if *stats != "" {
		if serr := writeStats(executor, *stats); serr != nil && err == nil {
			err = serr
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "dufpbench:", err)
		return 1
	}
	if *listen != "" {
		fmt.Fprintf(os.Stderr, "campaign done; still serving on %s (interrupt to exit)\n", *listen)
		<-ctx.Done()
	}
	return 0
}

// statsTicker periodically prints one-line executor statistics to stderr
// until stopped or the context is cancelled.
func statsTicker(ctx context.Context, executor *dufp.Executor) (stop func()) {
	done := make(chan struct{})
	go func() {
		t := time.NewTicker(10 * time.Second)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-ctx.Done():
				return
			case <-t.C:
				st := executor.Stats()
				fmt.Fprintf(os.Stderr, "[stats] submitted=%d started=%d completed=%d failed=%d cached=%d disk=%d coalesced=%d wall=%s\n",
					st.Submitted, st.Started, st.Completed, st.Failed, st.CacheHits, st.DiskHits, st.Coalesced, st.RunWall.Round(time.Millisecond))
			}
		}
	}()
	var once sync.Once
	return func() { once.Do(func() { close(done) }) }
}

// progressObserver renders the executor's structured events as one stderr
// line each. The executor calls it from many goroutines; the mutex keeps
// lines whole and the counter monotone.
func progressObserver() func(dufp.ExecutorEvent) {
	var (
		mu   sync.Mutex
		done int
	)
	return func(ev dufp.ExecutorEvent) {
		mu.Lock()
		defer mu.Unlock()
		switch ev.Kind {
		case dufp.ExecCompleted, dufp.ExecFailed:
			done++
			fmt.Fprintf(os.Stderr, "[%4d done] %-9s %s (%.2fs, %d in flight)\n",
				done, ev.Kind, ev.Key, ev.Wall.Seconds(), ev.QueueDepth)
		case dufp.ExecCached, dufp.ExecCoalesced, dufp.ExecDiskHit:
			fmt.Fprintf(os.Stderr, "[%4d done] %-9s %s\n", done, ev.Kind, ev.Key)
		case dufp.ExecDiskDegraded:
			fmt.Fprintf(os.Stderr, "[%4d done] %-9s %v\n", done, ev.Kind, ev.Err)
		}
	}
}

// writeStats dumps the executor's counters as JSON.
func writeStats(executor *dufp.Executor, path string) error {
	out := os.Stdout
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(executor.Stats())
}

// runFaults renders the robustness grid: guarded DUFP under every fault
// level of the default ladder, against each application's clean
// baseline.
func runFaults(opts experiment.Options, md bool) error {
	// The robustness sweep only probes active-controller tolerances; the
	// zero-tolerance column of the paper grid is meaningless here.
	opts.Tolerances = []float64{0.05, 0.10}
	levels := experiment.DefaultFaultLevels()
	fmt.Fprintf(os.Stderr, "running robustness grid: %d apps × %d fault levels × %d tolerances × %d runs (+baselines)...\n",
		len(gridApps(opts)), len(levels), len(opts.Tolerances), opts.Runs)
	t, err := experiment.Robustness(opts, levels)
	if err != nil {
		return err
	}
	if md {
		return t.Markdown(os.Stdout)
	}
	return t.Render(os.Stdout)
}

func writeHTML(opts experiment.Options, path string) error {
	fmt.Fprintf(os.Stderr, "running full campaign for the HTML report (%d runs per configuration)...\n", opts.Runs)
	doc, err := report.Campaign(opts)
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := doc.Write(f); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", path)
	return nil
}

func run(opts experiment.Options, fig string, md bool, traceCSV string) error {
	out := os.Stdout
	render := func(t experiment.Table) error {
		if md {
			return t.Markdown(out)
		}
		return t.Render(out)
	}

	var grid *experiment.Grid
	needGrid := func() error {
		if grid != nil {
			return nil
		}
		fmt.Fprintf(os.Stderr, "running measurement campaign: %d apps × %d tolerances × 2 governors × %d runs (+baselines)...\n",
			len(gridApps(opts)), len(opts.Tolerances), opts.Runs)
		g, err := experiment.RunGrid(opts)
		if err != nil {
			return err
		}
		grid = g
		return nil
	}

	gridFig := func(build func(*experiment.Grid) (experiment.Table, error)) error {
		if err := needGrid(); err != nil {
			return err
		}
		t, err := build(grid)
		if err != nil {
			return err
		}
		return render(t)
	}

	fig = strings.ToLower(fig)
	all := fig == "all"

	if all || fig == "table1" {
		if err := render(experiment.TableI(opts)); err != nil {
			return err
		}
	}
	if all || fig == "1a" {
		t, err := experiment.Fig1a(opts)
		if err != nil {
			return err
		}
		if err := render(t); err != nil {
			return err
		}
	}
	if all || fig == "1b" || fig == "1c" {
		b, c, err := experiment.Fig1bc(opts)
		if err != nil {
			return err
		}
		if all || fig == "1b" {
			if err := render(b); err != nil {
				return err
			}
		}
		if all || fig == "1c" {
			if err := render(c); err != nil {
				return err
			}
		}
	}
	switch {
	case all:
		for _, b := range []func(*experiment.Grid) (experiment.Table, error){
			experiment.Fig3a, experiment.Fig3b, experiment.Fig3c, experiment.Fig4, experiment.Claims,
		} {
			if err := gridFig(b); err != nil {
				return err
			}
		}
	case fig == "3a":
		return gridFig(experiment.Fig3a)
	case fig == "3b":
		return gridFig(experiment.Fig3b)
	case fig == "3c":
		return gridFig(experiment.Fig3c)
	case fig == "4":
		return gridFig(experiment.Fig4)
	case fig == "claims":
		return gridFig(experiment.Claims)
	case fig == "sweep":
		t, err := experiment.ToleranceSweep(opts, sweepApp(opts), nil)
		if err != nil {
			return err
		}
		return render(t)
	case fig == "period":
		t, err := experiment.PeriodSweep(opts, sweepApp(opts), 0)
		if err != nil {
			return err
		}
		return render(t)
	case fig == "pathology":
		t, err := experiment.Pathology(opts)
		if err != nil {
			return err
		}
		return render(t)
	case fig == "autotune":
		t, err := experiment.AutoTune(opts, sweepApp(opts))
		if err != nil {
			return err
		}
		return render(t)
	}

	if all || fig == "5" {
		res, err := experiment.Fig5(opts)
		if err != nil {
			return err
		}
		if err := render(res.Table); err != nil {
			return err
		}
		if traceCSV != "" {
			if err := os.MkdirAll(traceCSV, 0o755); err != nil {
				return err
			}
			// The CSVs stream straight out of the reservoirs: no second
			// copy of the series is materialised.
			for _, s := range []struct {
				name string
				res  dufp.RunResult
			}{
				{"fig5_duf.csv", res.DUF},
				{"fig5_dufp.csv", res.DUFP},
			} {
				f, err := os.Create(filepath.Join(traceCSV, s.name))
				if err != nil {
					return err
				}
				if err := trace.WriteCSVSeq(f, s.res.Trace.Points(0)); err != nil {
					f.Close()
					return err
				}
				if err := f.Close(); err != nil {
					return err
				}
			}
			fmt.Fprintf(os.Stderr, "wrote traces to %s\n", traceCSV)
		}
	}

	if !all && !valid(fig) {
		return fmt.Errorf("unknown figure %q", fig)
	}
	return nil
}

func valid(fig string) bool {
	switch fig {
	case "table1", "1a", "1b", "1c", "3a", "3b", "3c", "4", "5", "claims", "sweep", "period", "pathology", "autotune":
		return true
	}
	return false
}

// sweepApp picks the sweep target: the first -apps entry, or CG.
func sweepApp(opts experiment.Options) string {
	if len(opts.Apps) > 0 {
		return opts.Apps[0]
	}
	return "CG"
}

func gridApps(opts experiment.Options) []string {
	if len(opts.Apps) > 0 {
		return opts.Apps
	}
	var names []string
	for _, a := range dufp.Suite() {
		names = append(names, a.Name)
	}
	return names
}
