package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"

	"dufp"
	"dufp/internal/api"
	"dufp/internal/api/client"
	"dufp/internal/experiment"
	"dufp/internal/obs/span"
)

// loadgenResult is the BENCH_api.json schema: one loadgen invocation's
// configuration, throughput and per-endpoint latency percentiles.
type loadgenResult struct {
	Clients     int          `json:"clients"`
	DurationS   float64      `json:"duration_s"`
	WarmupS     float64      `json:"warmup_s"`
	GridRuns    int          `json:"grid_runs"`
	Requests    int          `json:"requests"`
	Errors      int          `json:"errors"`
	Throughput  float64      `json:"throughput_rps"`
	SubmitRun   latencyStats `json:"post_run"`
	GetRun      latencyStats `json:"get_run"`
	GetCampaign latencyStats `json:"get_campaign"`
	// Span-derived decomposition of the warm campaign's runs: wall clock
	// spent waiting in the daemon's bounded queue versus everything from
	// dispatch to completion. TracedRuns is the number of retained span
	// traces the split was computed from (at most the daemon's record
	// store capacity, api.DefaultSampleCapacity).
	TracedRuns int          `json:"traced_runs"`
	QueueWait  latencyStats `json:"span_queue_wait"`
	Service    latencyStats `json:"span_service"`
	// DispatchWidth is the daemon's dispatcher count for the measured
	// configuration and QueueDepthMax the deepest api_queue_depth
	// observed during the measurement window — together they say whether
	// latency came from a queue the dispatchers could not drain.
	DispatchWidth int `json:"dispatch_width"`
	QueueDepthMax int `json:"queue_depth_max"`
	// QueueWaitBudgetMs echoes the -loadgen-queue-wait-budget gate the
	// invocation ran under (0: report-only).
	QueueWaitBudgetMs float64 `json:"queue_wait_budget_ms,omitempty"`
}

type latencyStats struct {
	Count int     `json:"count"`
	P50ms float64 `json:"p50_ms"`
	P90ms float64 `json:"p90_ms"`
	P99ms float64 `json:"p99_ms"`
	MaxMs float64 `json:"max_ms"`
}

// statsOf reduces raw latencies to the wire stats.
func statsOf(lat []time.Duration) latencyStats {
	if len(lat) == 0 {
		return latencyStats{}
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	at := func(q float64) float64 {
		i := int(q * float64(len(lat)-1))
		return float64(lat[i]) / float64(time.Millisecond)
	}
	return latencyStats{
		Count: len(lat),
		P50ms: at(0.50),
		P90ms: at(0.90),
		P99ms: at(0.99),
		MaxMs: float64(lat[len(lat)-1]) / float64(time.Millisecond),
	}
}

// runLoadgen benchmarks the Run API end to end: it hosts a real daemon
// on a loopback listener, warms it with a Fig-3 grid campaign, then
// hammers it with n concurrent HTTP clients alternating run
// submissions (all warm-cache hits), run lookups and campaign lookups,
// and writes throughput and latency percentiles to out.
// A positive queueWaitBudget turns the report's span_queue_wait p99 into
// a gate: the invocation fails when queued jobs waited longer than the
// budget, which is how BENCH_api.json catches dispatch-width regressions
// that raw request latency hides behind cache hits.
func runLoadgen(ctx context.Context, opts experiment.Options, n int, dur time.Duration, queueWaitBudget time.Duration, out string) error {
	if n < 1 {
		return fmt.Errorf("loadgen: need at least 1 client, got %d", n)
	}
	daemon, err := api.New(api.Config{
		Session:    opts.Session,
		Executor:   opts.Executor,
		QueueDepth: 4096,
		Registry:   dufp.NewMetricsRegistry(),
	})
	if err != nil {
		return err
	}
	defer daemon.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: daemon.FullHandler()}
	go srv.Serve(ln)
	defer srv.Close()
	base := "http://" + ln.Addr().String()

	// Warm phase: one grid campaign computes (or disk-loads) every run
	// the measurement phase will touch.
	warmStart := time.Now()
	spec := api.CampaignSpec{
		V:          dufp.WireVersion,
		Kind:       api.KindGrid,
		Apps:       opts.Apps,
		Tolerances: opts.Tolerances,
		Runs:       opts.Runs,
	}
	warmClient := client.New(base)
	accepted, err := warmClient.SubmitCampaign(ctx, spec)
	if err != nil {
		return fmt.Errorf("loadgen: warm campaign: %w", err)
	}
	fmt.Fprintf(os.Stderr, "loadgen: warming campaign %s (%d runs)...\n", accepted.ID, accepted.Total)
	final, err := warmClient.WaitCampaign(ctx, accepted.ID, nil)
	if err != nil {
		return fmt.Errorf("loadgen: waiting for warm campaign: %w", err)
	}
	if final.State != api.StateDone {
		return fmt.Errorf("loadgen: warm campaign %s: %s", final.State, final.Error)
	}
	warmup := time.Since(warmStart)

	// The measurement mix: the specs the clients re-submit (idempotent,
	// warm) and the IDs they look up.
	specs, err := gridSpecs(opts)
	if err != nil {
		return err
	}
	runIDs := final.RunIDs
	campaignID := final.ID

	fmt.Fprintf(os.Stderr, "loadgen: %d clients × %s against %s (%d specs, %d run IDs)\n",
		n, dur, base, len(specs), len(runIDs))

	type sample struct {
		kind string
		lat  time.Duration
		err  bool
	}
	samples := make([][]sample, n)
	deadline := time.Now().Add(dur)

	// Sample the queue gauge through the measurement window; the maximum
	// is the report's queue_depth_max. Warm-campaign submissions also go
	// through the queue, so sampling starts only now.
	depthDone := make(chan struct{})
	var depthMax int
	go func() {
		defer close(depthDone)
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for time.Now().Before(deadline) && ctx.Err() == nil {
			<-tick.C
			if d := daemon.Health().QueueDepth; d > depthMax {
				depthMax = d
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := client.New(base)
			c.HTTP = &http.Client{Timeout: 30 * time.Second}
			rng := rand.New(rand.NewSource(int64(w)*2654435761 + 1))
			for time.Now().Before(deadline) && ctx.Err() == nil {
				var (
					kind string
					err  error
				)
				start := time.Now()
				switch rng.Intn(3) {
				case 0:
					kind = "post_run"
					_, err = c.SubmitRun(ctx, specs[rng.Intn(len(specs))])
				case 1:
					kind = "get_run"
					_, err = c.Run(ctx, runIDs[rng.Intn(len(runIDs))])
				default:
					kind = "get_campaign"
					_, err = c.Campaign(ctx, campaignID)
				}
				samples[w] = append(samples[w], sample{kind: kind, lat: time.Since(start), err: err != nil})
			}
		}(w)
	}
	wg.Wait()
	<-depthDone
	if ctx.Err() != nil {
		return ctx.Err()
	}

	byKind := map[string][]time.Duration{}
	res := loadgenResult{
		Clients:           n,
		DurationS:         dur.Seconds(),
		WarmupS:           warmup.Seconds(),
		GridRuns:          final.Total,
		DispatchWidth:     daemon.Workers(),
		QueueDepthMax:     depthMax,
		QueueWaitBudgetMs: float64(queueWaitBudget) / float64(time.Millisecond),
	}
	for _, batch := range samples {
		for _, s := range batch {
			res.Requests++
			if s.err {
				res.Errors++
				continue
			}
			byKind[s.kind] = append(byKind[s.kind], s.lat)
		}
	}
	res.Throughput = float64(res.Requests) / dur.Seconds()
	res.SubmitRun = statsOf(byKind["post_run"])
	res.GetRun = statsOf(byKind["get_run"])
	res.GetCampaign = statsOf(byKind["get_campaign"])

	// Decompose the warm campaign's runs with their span traces: queue
	// wait (acceptance to dispatch) vs service time (dispatch to
	// completion). Under a full queue the wait dominates; the split shows
	// whether latency is backpressure or simulation. The daemon keeps
	// the traces of its last api.DefaultSampleCapacity dispatched runs.
	var queueWait, service []time.Duration
	for _, id := range runIDs {
		tr, ok := daemon.Spans().Get(id)
		if !ok {
			continue
		}
		sum := tr.Summary()
		q := sum.Stage(span.StageQueue)
		queueWait = append(queueWait, q)
		service = append(service, time.Duration(sum.TotalNS)-q)
	}
	res.TracedRuns = len(queueWait)
	res.QueueWait = statsOf(queueWait)
	res.Service = statsOf(service)

	f, err := os.Create(out)
	if err != nil {
		return err
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(res); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "loadgen: %d requests (%d errors), %.0f req/s; POST /v1/runs p50=%.2fms p99=%.2fms → %s\n",
		res.Requests, res.Errors, res.Throughput, res.SubmitRun.P50ms, res.SubmitRun.P99ms, out)
	fmt.Fprintf(os.Stderr, "loadgen: %d traced runs: queue wait p50=%.2fms p99=%.2fms, service p50=%.2fms p99=%.2fms (dispatchers: %d, queue depth max: %d)\n",
		res.TracedRuns, res.QueueWait.P50ms, res.QueueWait.P99ms, res.Service.P50ms, res.Service.P99ms, res.DispatchWidth, res.QueueDepthMax)
	if res.Errors > 0 {
		return fmt.Errorf("loadgen: %d/%d requests failed", res.Errors, res.Requests)
	}
	if budgetMs := res.QueueWaitBudgetMs; budgetMs > 0 && res.QueueWait.P99ms > budgetMs {
		return fmt.Errorf("loadgen: queue wait p99 %.2fms exceeds budget %.0fms (service p99 %.2fms, dispatchers %d) — queued jobs are starving behind dispatch",
			res.QueueWait.P99ms, budgetMs, res.Service.P99ms, res.DispatchWidth)
	}
	return nil
}

// gridSpecs reproduces the Fig-3 grid expansion as client-side run
// specs: apps × {baseline, DUF, DUFP per tolerance} × run indices.
func gridSpecs(opts experiment.Options) ([]dufp.RunSpec, error) {
	names := opts.Apps
	if len(names) == 0 {
		for _, a := range dufp.Suite() {
			names = append(names, a.Name)
		}
	}
	var specs []dufp.RunSpec
	for _, name := range names {
		app, err := dufp.AppNamed(name)
		if err != nil {
			return nil, err
		}
		govs := []dufp.Governor{dufp.Baseline()}
		for _, tol := range opts.Tolerances {
			cfg := dufp.DefaultControlConfig(tol)
			govs = append(govs, dufp.DUF(cfg), dufp.DUFP(cfg))
		}
		for _, gov := range govs {
			for i := 0; i < opts.Runs; i++ {
				specs = append(specs, dufp.RunSpec{App: app, Governor: gov, Idx: i})
			}
		}
	}
	return specs, nil
}
