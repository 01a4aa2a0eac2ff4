// Command dufpd is the long-running campaign daemon: the harness's run
// executor behind a versioned HTTP/JSON API.
//
//	dufpd -listen :8080 -data-dir /var/lib/dufpd
//
// Clients submit single runs (POST /v1/runs) or whole campaigns — Fig-3
// grids, tolerance sweeps, fault-robustness ladders — (POST
// /v1/campaigns) and follow them by polling or SSE (GET
// /v1/runs/{id}/events). Results are durably backed by the executor's
// disk cache and accepted campaigns are journaled, so a restarted
// daemon resumes where it stopped: replayed runs whose results are on
// disk complete without re-simulation, bit-identical to the originals.
// The same handler also serves the observability surface (/metrics,
// /metrics.json, /debug/pprof/), and the daemon keeps a record of each
// of the last -sample-capacity runs it dispatched. A record holds the
// run's trace, streamed into a bounded reservoir (-sample-points per
// socket) while the run is still producing, and, once dispatch has
// ended, its span trace. GET /v1/runs/{id}/samples serves the retained
// series paginated (?socket=&offset=&limit=) or as NDJSON
// (?format=ndjson), GET /v1/runs/{id}?include=trace embeds the full wire
// v1.1 result, and GET /v1/runs/{id}/trace serves the span trace as
// Perfetto-loadable Chrome trace-event JSON.
//
// On SIGINT/SIGTERM the daemon stops intake and drains in-flight runs
// for -drain-timeout before exiting; a second signal kills it
// immediately.
package main

import (
	"context"
	"flag"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"dufp"
	"dufp/internal/api"
)

func main() { os.Exit(daemonMain()) }

func daemonMain() int {
	var (
		listen    = flag.String("listen", ":8080", "address to serve the Run API and observability endpoints on")
		dataDir   = flag.String("data-dir", envOr("DUFP_DATA_DIR", "dufpd-data"), "directory for the campaign journal and (by default) the run cache")
		cacheDir  = flag.String("cache-dir", "", "run cache directory (default: <data-dir>/cache)")
		workers   = flag.Int("parallel", 0, "max concurrent simulations (default: GOMAXPROCS)")
		queue     = flag.Int("queue", 256, "bounded job queue depth; full queue rejects single-run submissions with 429")
		seed      = flag.Int64("seed", 42, "base seed of the measurement campaigns")
		drainFor  = flag.Duration("drain-timeout", 30*time.Second, "how long to drain in-flight runs on shutdown before aborting them")
		spanSlow  = flag.Duration("span-slow", 0, "slow-run budget: log the full span tree of any run over this wall clock (0: off)")
		sampleCap = flag.Int("sample-capacity", 0, "run record store: recently dispatched runs whose samples and span trace are kept for /v1/runs/{id}/samples and /trace (non-positive: default 64)")
		samplePts = flag.Int("sample-points", 0, "per-socket reservoir size of each retained run's samples (0: default 8192)")
	)
	flag.Parse()
	logger := log.New(os.Stderr, "dufpd: ", log.LstdFlags)

	if *cacheDir == "" {
		*cacheDir = filepath.Join(*dataDir, "cache")
	}
	var eopts []dufp.ExecutorOption
	eopts = append(eopts, dufp.ExecDiskCache(*cacheDir))
	if *workers > 0 {
		eopts = append(eopts, dufp.ExecWorkers(*workers))
	}
	executor := dufp.NewExecutor(eopts...)
	defer executor.Close()
	if w := executor.DiskWarning(); w != "" {
		logger.Print(w)
	}

	session := dufp.NewSession()
	session.Seed = *seed
	// -parallel bounds both layers: the executor's concurrent simulations
	// and (via api.Config.Workers' 2× default) the dispatchers draining
	// the queue, so widening one widens the whole path.
	daemon, err := api.New(api.Config{
		Session:               session,
		Executor:              executor,
		QueueDepth:            *queue,
		DataDir:               *dataDir,
		Logf:                  logger.Printf,
		SpanSlowThreshold:     *spanSlow,
		SampleCapacity:        *sampleCap,
		SamplePointsPerSocket: *samplePts,
	})
	if err != nil {
		logger.Print(err)
		return 1
	}
	defer daemon.Close()

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		logger.Print(err)
		return 1
	}
	srv := &http.Server{Handler: daemon.FullHandler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	logger.Printf("serving Run API on %s (data: %s, cache: %s, queue: %d, simulations: %d, dispatchers: %d)",
		ln.Addr(), *dataDir, *cacheDir, *queue, executor.Workers(), daemon.Workers())

	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-serveErr:
		logger.Print(err)
		return 1
	case sig := <-sigs:
		logger.Printf("%s: draining (up to %s; signal again to abort)", sig, *drainFor)
	}

	drainCtx, cancel := context.WithTimeout(context.Background(), *drainFor)
	defer cancel()
	go func() {
		<-sigs
		logger.Print("second signal: aborting in-flight runs")
		cancel()
	}()
	if err := daemon.Drain(drainCtx); err != nil {
		logger.Printf("drain incomplete: %v", err)
	}
	shutCtx, shutCancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer shutCancel()
	srv.Shutdown(shutCtx)
	logger.Print("bye")
	return 0
}

// envOr returns the environment variable or a fallback.
func envOr(key, fallback string) string {
	if v := os.Getenv(key); v != "" {
		return v
	}
	return fallback
}
