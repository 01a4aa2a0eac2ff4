package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"time"

	"dufp"
	"dufp/internal/api"
	"dufp/internal/api/client"
)

// Traffic shape of dufpd-mixed. The sequence is made of blocks of four
// requests, one of each class in a seeded order, so every class gets
// the same count; the clients take the blocks in turn. 80 blocks last
// about a second on the reference host with two clients.
const (
	blocksPerSecond = 80
	// prefillRuns are completed by a previous daemon generation at
	// set-up, so the measured daemon finds them only on disk.
	prefillRuns = 16
	// warmupColds are the first cold runs, completed at set-up (at least
	// one per client) so warm requests have targets from the first block
	// on.
	warmupColds = 8
	pageSize    = 500
	// digestOracle is how many completed runs are re-run in process.
	digestOracle = 8
)

// recentColds bounds how far back a samples page reaches into the
// client's own cold runs. The sample store keeps the last
// api.DefaultSampleCapacity runs the daemon dispatched, and while a
// client makes k cold runs each other client makes about k too, so its
// k-th most recent run is about k·clients dispatches old. A quarter of
// the store per client keeps every target inside it even when the other
// clients run four times as fast.
func recentColds(clients int) int { return max(1, api.DefaultSampleCapacity/(4*clients)) }

// mixOp is one request of a client's sequence.
type mixOp struct {
	class string
	spec  dufp.RunSpec
	id    string
	// socket and offset select a samples page.
	socket, offset int
}

// mixClient is one closed-loop client with its own connection and its
// generated request sequence.
type mixClient struct {
	n     int
	http  *client.Client
	warm  []mixOp
	ops   []mixOp
	colds []mixOp // warm-up and sequence cold runs, in order

	// Written only by the client's own goroutine.
	runs      map[string]dufp.Run
	lat       map[string][]float64
	attempted int64
	failed    int64
	// closure pairs each cold run's client-observed total with the
	// daemon span trace's total, in ms (traced pass).
	clientMS, traceMS []float64
}

// dufpdMixed is an in-process dufpd with dufpd's defaults — a disk
// cache in a temp data dir, the sample store and the span recorder —
// behind a loopback HTTP server, plus its clients.
type dufpdMixed struct {
	e       *env
	session dufp.Session
	dataDir string
	exe     *dufp.Executor
	watch   *execWatch
	daemon  *api.Daemon
	srv     *http.Server
	served  chan error
	base    string
	openDur time.Duration
	clients []*mixClient
	prefill []mixOp
	// colds are the sequence's cold runs, warm-up included, in stream
	// order.
	colds []mixOp
	// prefillRuns holds the previous generation's results by run ID.
	prefillRuns map[string]dufp.Run
}

// governors are the controller configurations cold runs draw from.
func governors() []dufp.Governor {
	govs := []dufp.Governor{dufp.Baseline()}
	for _, tol := range []float64{0, 0.05, 0.10, 0.20} {
		cfg := dufp.DefaultControlConfig(tol)
		govs = append(govs, dufp.DUF(cfg), dufp.DUFP(cfg))
	}
	return govs
}

// sequence generates the prefill runs, the cold runs and every
// client's request sequence from the seed. The cold runs are one stream
// drawn from the seed alone, the j-th with index prefillRuns + j: the
// warm-up runs go to the clients in turn, and so do the blocks, each
// with one cold run. So the runs a workload simulates, and their digest,
// depend on the seed and size but not on the client count (up to
// warmupColds clients).
func sequence(seed int64, session dufp.Session, clients, blocks int) (prefill, colds []mixOp, out []*mixClient) {
	suite, govs := dufp.Suite(), governors()
	newSpec := func(rng *rand.Rand, idx int) mixOp {
		spec := dufp.RunSpec{App: suite[rng.Intn(len(suite))], Governor: govs[rng.Intn(len(govs))], Idx: idx}
		return mixOp{class: "cold", spec: spec, id: session.RunID(spec)}
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < prefillRuns; i++ {
		prefill = append(prefill, newSpec(rng, i))
	}
	for c := 0; c < clients; c++ {
		out = append(out, &mixClient{n: c, runs: map[string]dufp.Run{}, lat: map[string][]float64{}})
	}
	coldRNG := rand.New(rand.NewSource(seed*1_000_003 + 1))
	cold := func(mc *mixClient) mixOp {
		op := newSpec(coldRNG, prefillRuns+len(colds))
		colds = append(colds, op)
		mc.colds = append(mc.colds, op)
		return op
	}
	for j := 0; j < max(warmupColds, clients); j++ {
		mc := out[j%clients]
		mc.warm = append(mc.warm, cold(mc))
	}
	opRNG := rand.New(rand.NewSource(seed*1_000_003 + 2))
	sockets := session.Sim.Topo.Sockets
	recent := recentColds(clients)
	for b := 0; b < blocks; b++ {
		mc := out[b%clients]
		pick := func() mixOp {
			k := opRNG.Intn(len(prefill) + len(mc.colds))
			if k < len(prefill) {
				return prefill[k]
			}
			return mc.colds[k-len(prefill)]
		}
		for _, class := range opRNG.Perm(len(apiClasses)) {
			var op mixOp
			switch apiClasses[class] {
			case "cold":
				op = cold(mc)
			case "resubmit":
				op = pick()
			case "status":
				op = pick()
				op.spec = dufp.RunSpec{}
			case "samples":
				op = mc.colds[len(mc.colds)-1-opRNG.Intn(min(recent, len(mc.colds)))]
				op.spec = dufp.RunSpec{}
				op.socket = opRNG.Intn(sockets)
				op.offset = pageSize * opRNG.Intn(3)
			}
			op.class = apiClasses[class]
			mc.ops = append(mc.ops, op)
		}
	}
	return prefill, colds, out
}

func setupDufpdMixed(e *env) (fixture, error) {
	session := dufp.NewSession(dufp.WithSeed(e.cfg.seed))
	dataDir, err := e.newDir("dufpd")
	if err != nil {
		return nil, err
	}
	f := &dufpdMixed{e: e, session: session, dataDir: dataDir, prefillRuns: map[string]dufp.Run{}}
	f.prefill, f.colds, f.clients = sequence(e.cfg.seed, session, runtime.NumCPU(), blocksPerSecond*e.cfg.seconds)
	cacheDir := filepath.Join(dataDir, "cache")
	if err := f.prefillDisk(cacheDir); err != nil {
		return nil, fmt.Errorf("previous daemon generation: %w", err)
	}

	f.watch = newExecWatch(dufp.ExecCompleted, 1<<20)
	start := time.Now()
	f.exe = dufp.NewExecutor(dufp.ExecDiskCache(cacheDir), dufp.ExecObserver(func(ev dufp.ExecutorEvent) { f.watch.observe(ev) }))
	f.openDur = time.Since(start)
	if w := f.exe.DiskWarning(); w != "" {
		return nil, errors.New(w)
	}
	f.daemon, err = api.New(api.Config{Session: session, Executor: f.exe, DataDir: dataDir})
	if err != nil {
		f.exe.Close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		f.close()
		return nil, err
	}
	f.base = "http://" + ln.Addr().String()
	f.srv = &http.Server{Handler: f.daemon.FullHandler()}
	f.served = make(chan error, 1)
	go func() { f.served <- f.srv.Serve(ln) }()

	// Each client has one connection; its warm-up runs go through it.
	var wg sync.WaitGroup
	errs := make([]error, len(f.clients))
	for i, c := range f.clients {
		c.http = &client.Client{BaseURL: f.base, HTTP: &http.Client{
			Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
		}}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, op := range c.warm {
				st, err := submitAndWait(context.Background(), c.http, op.spec)
				if err != nil {
					errs[i] = fmt.Errorf("warm-up run %s: %w", op.id, err)
					return
				}
				c.runs[op.id] = *st.Run
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		f.close()
		return nil, err
	}
	return f, nil
}

// prefillDisk runs the prefill specs through a previous daemon
// generation on the same cache directory and stops it, as a restarted
// dufpd would find them.
func (f *dufpdMixed) prefillDisk(cacheDir string) error {
	exe := dufp.NewExecutor(dufp.ExecDiskCache(cacheDir))
	d, err := api.New(api.Config{Session: f.session, Executor: exe})
	if err != nil {
		exe.Close()
		return err
	}
	var runErr error
	for _, op := range f.prefill {
		if _, err := d.SubmitRun(op.spec); err != nil {
			runErr = err
			break
		}
	}
	for _, op := range f.prefill {
		if runErr != nil {
			break
		}
		ch, cancel, ok := d.SubscribeRun(op.id)
		if !ok {
			runErr = fmt.Errorf("run %s not tracked", op.id)
			break
		}
		var last api.RunStatus
		for st := range ch {
			last = st
		}
		cancel()
		if last.State != api.StateDone || last.Run == nil {
			runErr = fmt.Errorf("run %s ended %s: %s", op.id, last.State, last.Error)
			break
		}
		f.prefillRuns[op.id] = *last.Run
	}
	return errors.Join(runErr, d.Close(), exe.Close())
}

// submitAndWait is a cold request: POST the spec, then follow the run
// to a terminal state.
func submitAndWait(ctx context.Context, c *client.Client, spec dufp.RunSpec) (api.RunStatus, error) {
	st, err := c.SubmitRun(ctx, spec)
	if err == nil && st.State != api.StateDone && st.State != api.StateFailed {
		st, err = c.WaitRun(ctx, st.ID, nil)
	}
	return st, checkDone(st, err)
}

func checkDone(st api.RunStatus, err error) error {
	switch {
	case err != nil:
		return err
	case st.State != api.StateDone || st.Run == nil:
		return fmt.Errorf("run %s ended %q: %s", st.ID, st.State, st.Error)
	}
	return nil
}

func (f *dufpdMixed) close() error {
	var errs []error
	if f.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		errs = append(errs, f.srv.Shutdown(ctx))
		cancel()
		if err := <-f.served; !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
		f.srv = nil
	}
	for _, c := range f.clients {
		if c.http != nil {
			c.http.HTTP.CloseIdleConnections()
		}
	}
	if f.daemon != nil {
		errs = append(errs, f.daemon.Close())
		f.daemon = nil
	}
	if f.exe != nil {
		errs = append(errs, f.exe.Close())
		f.exe = nil
	}
	return errors.Join(errs...)
}

// known returns the reference result of a completed run: the previous
// generation's, or the client's own cold run's.
func (f *dufpdMixed) known(c *mixClient, id string) (dufp.Run, bool) {
	if r, ok := f.prefillRuns[id]; ok {
		return r, true
	}
	r, ok := c.runs[id]
	return r, ok
}

func (f *dufpdMixed) run(p *phase) error {
	ctx := context.Background()
	f.watch.setTraced(p.traced)
	for id := range f.prefillRuns {
		f.watch.markDone(id)
	}
	for _, c := range f.clients {
		for id := range c.runs {
			f.watch.markDone(id)
		}
	}
	before := f.exe.Stats()
	stats := &runStats{}

	p.begin()
	var wg sync.WaitGroup
	for _, c := range f.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f.drive(ctx, p, c, stats)
		}()
	}
	wg.Wait()
	for _, c := range f.clients {
		p.ops += c.attempted - c.failed
	}
	p.end()

	lat := map[string][]float64{}
	for _, c := range f.clients {
		p.attempted += c.attempted
		p.failed += c.failed
		for class, xs := range c.lat {
			lat[class] = append(lat[class], xs...)
		}
	}
	p.lat = lat["cold"]
	st := subStats(f.exe.Stats(), before)
	checkIdentity(p, st)
	if p.traced {
		simLayers(p)
		execLayers(p, st, f.watch.resimulated())
		stats.report(p)
		for _, class := range apiClasses {
			p.layers["api.client_ms_p50."+class] = quantile(lat[class], 0.5)
			p.layers["api.client_ms_p95."+class] = quantile(lat[class], 0.95)
		}
		p.layers["diskcache.open_ms"] = ms(f.openDur)
		ds, _ := f.exe.DiskCacheStats()
		diskLayers(p, filepath.Join(f.dataDir, "cache"), ds.Loaded+ds.Written, ds)
	}
	return f.verify(ctx, p)
}

// drive works through one client's sequence, a request at a time.
func (f *dufpdMixed) drive(ctx context.Context, p *phase, c *mixClient, stats *runStats) {
	for k, op := range c.ops {
		req := fmt.Sprintf("c%d-%d", c.n, k)
		root := p.spans.begin(req, op.class, -1)
		start := time.Now()
		var err error
		var got dufp.Run
		switch op.class {
		case "cold":
			var st api.RunStatus
			p.spans.timed(req, "client.SubmitRun", root, func() { st, err = c.http.SubmitRun(ctx, op.spec) })
			if err == nil && st.State != api.StateDone && st.State != api.StateFailed {
				p.spans.timed(req, "client.WaitRun", root, func() { st, err = c.http.WaitRun(ctx, st.ID, nil) })
			}
			if err = checkDone(st, err); err == nil {
				got = *st.Run
				c.runs[op.id] = got
			}
		case "resubmit":
			var st api.RunStatus
			p.spans.timed(req, "client.SubmitRun", root, func() { st, err = c.http.SubmitRun(ctx, op.spec) })
			if err = checkDone(st, err); err == nil {
				got = *st.Run
			}
		case "status":
			var st api.RunStatus
			p.spans.timed(req, "client.Run", root, func() { st, err = c.http.Run(ctx, op.id) })
			if err = checkDone(st, err); err == nil {
				got = *st.Run
			}
		case "samples":
			var page api.RunSamples
			p.spans.timed(req, "client.Samples", root, func() { page, err = c.http.Samples(ctx, op.id, op.socket, op.offset, pageSize) })
			if err == nil && (page.ID != op.id || page.Total == 0 || len(page.Points) != min(pageSize, page.Total-op.offset)) {
				err = fmt.Errorf("samples page of %s at %d: %d of %d points", op.id, op.offset, len(page.Points), page.Total)
			}
		}
		d := time.Since(start)
		p.spans.end(root)
		c.attempted++
		if err != nil {
			c.failed++
			fmt.Fprintf(f.e.log, "trafficbench: %s %s: %v\n", op.class, op.id, err)
			continue
		}
		c.lat[op.class] = append(c.lat[op.class], ms(d))
		if op.class == "resubmit" || op.class == "status" {
			if want, ok := f.known(c, op.id); !ok || !sameRun(got, want) {
				p.mismatch("%s of %s returned a run that differs from its completed result", op.class, op.id)
			}
		}
		if op.class == "cold" && p.traced {
			if tr, ok := f.daemon.Spans().Get(op.id); ok {
				stats.add(tr)
				c.clientMS = append(c.clientMS, ms(d))
				c.traceMS = append(c.traceMS, float64(tr.Summary().TotalNS)/1e6)
			}
		}
	}
}

// verify checks the daemon's outputs after the timed window: the
// digest of every run the workload produced, a seeded sample re-run in
// process, and — traced — the layer probes and the latency closure.
func (f *dufpdMixed) verify(ctx context.Context, p *phase) error {
	var specs []dufp.RunSpec
	var runs []dufp.Run
	for _, op := range f.prefill {
		specs = append(specs, op.spec)
		runs = append(runs, f.prefillRuns[op.id])
	}
	done := map[string]dufp.Run{}
	for _, c := range f.clients {
		for id, run := range c.runs {
			done[id] = run
		}
	}
	for _, op := range f.colds {
		run, ok := done[op.id]
		if !ok {
			p.mismatch("cold run %s never completed", op.id)
		}
		specs = append(specs, op.spec)
		runs = append(runs, run)
	}
	f.e.digests.check(f.e, p, fmt.Sprintf("dufpd-mixed/colds=%d", len(f.colds)), digestRuns(runs))
	oracleCheck(ctx, p, f.e.cfg.seed, f.session, specs[prefillRuns:], func(i int) (dufp.Run, bool) {
		return runs[prefillRuns+i], runs[prefillRuns+i] != dufp.Run{}
	}, digestOracle)
	if !p.traced {
		return nil
	}

	for i, spec := range specs {
		id := f.session.RunID(spec)
		p.spans.timed("probe-"+strconv.Itoa(i), "exec.DiskGetByID", -1, func() { f.exe.DiskGetByID(id) })
	}
	p.layers["diskcache.get_us"] = quantile(p.spans.durations("exec.DiskGetByID", time.Microsecond), 0.5)
	bodies, err := f.statusBodies(ctx, specs)
	if err != nil {
		return err
	}
	probeCodecs(p, f.session, specs, runs, bodies)
	probeSubmit(p, f.exe, f.watch.servedKeys())
	f.probeHandlers(p)
	f.closure(p)
	return nil
}

// statusBodies fetches each run's GET /v1/runs/{id} body as the daemon
// serves it.
func (f *dufpdMixed) statusBodies(ctx context.Context, specs []dufp.RunSpec) ([][]byte, error) {
	hc := f.clients[0].http.HTTP
	var out [][]byte
	for _, spec := range specs {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, f.base+"/v1/runs/"+f.session.RunID(spec), nil)
		if err != nil {
			return nil, err
		}
		resp, err := hc.Do(req)
		if err != nil {
			return nil, err
		}
		b, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		out = append(out, b)
	}
	return out, nil
}

// probeHandlers times the daemon's handlers called directly, without
// HTTP or JSON, on the warm requests of the sequence: re-submissions,
// status reads, and sample pages of the runs the store still retains.
// The client latency of a class minus its direct call is the HTTP and
// wire cost of that class.
func (f *dufpdMixed) probeHandlers(p *phase) {
	d := f.daemon
	recent := recentColds(len(f.clients))
	for _, c := range f.clients {
		retained := c.colds[len(c.colds)-min(recent, len(c.colds)):]
		for k, op := range c.ops {
			req := fmt.Sprintf("probe-c%d-%d", c.n, k)
			switch op.class {
			case "resubmit":
				p.spans.timed(req, "api.Daemon.SubmitRun", -1, func() {
					if st, err := d.SubmitRun(op.spec); err != nil || st.State != api.StateDone {
						p.mismatch("direct re-submission of %s: %v %s", op.id, err, st.State)
					}
				})
			case "status":
				p.spans.timed(req, "api.Daemon.RunStatus", -1, func() {
					if st, ok := d.RunStatus(op.id); !ok || st.State != api.StateDone {
						p.mismatch("direct status of %s: %s", op.id, st.State)
					}
				})
			case "samples":
				target := retained[k%len(retained)]
				p.spans.timed(req, "api.Daemon.RunSamples", -1, func() {
					if _, ok := d.RunSamples(target.id, op.socket, op.offset, pageSize); !ok {
						p.mismatch("direct samples of retained run %s missing", target.id)
					}
				})
			}
		}
	}
	names := map[string]string{"resubmit": "api.Daemon.SubmitRun", "status": "api.Daemon.RunStatus", "samples": "api.Daemon.RunSamples"}
	for _, class := range apiClasses[1:] {
		direct := quantile(p.spans.durations(names[class], time.Microsecond), 0.5)
		p.layers["api.handler_us_p50."+handlerNames[class]] = direct
		p.layers["api.http_us_p50."+handlerNames[class]] = p.layers["api.client_ms_p50."+class]*1000 - direct
	}

	// trace.points_per_run: samples each retained run streamed, summed
	// over sockets.
	var points []float64
	for _, c := range f.clients {
		for _, op := range c.colds[len(c.colds)-min(recent, len(c.colds)):] {
			first, ok := d.RunSamples(op.id, 0, 0, 1)
			if !ok {
				continue
			}
			seen := float64(first.Seen)
			for s := 1; s < first.Sockets; s++ {
				page, _ := d.RunSamples(op.id, s, 0, 1)
				seen += float64(page.Seen)
			}
			points = append(points, seen)
		}
	}
	p.layers["trace.points_per_run"] = quantile(points, 0.5)
}

// closure checks that a cold run's client-observed POST→done time is
// the daemon's span tree total (whose stage self-times sum to it) plus
// the client-side HTTP remainder, within 5 %.
func (f *dufpdMixed) closure(p *phase) {
	var ratios []float64
	remainder := p.layers["api.http_us_p50.submit"] / 1000
	for _, c := range f.clients {
		for i, total := range c.clientMS {
			if total > 0 {
				ratios = append(ratios, (c.traceMS[i]+remainder)/total)
			}
		}
	}
	if len(ratios) == 0 {
		p.mismatch("no cold run left a span trace")
		return
	}
	pct := (quantile(ratios, 0.5) - 1) * 100
	p.layers["bench.closure_pct"] = pct
	if pct < -5 || pct > 5 {
		p.mismatch("latency closure off by %.2f %%: span stages plus HTTP remainder do not add up to the client's POST→done time", pct)
	}
}

func subStats(a, b dufp.ExecutorStats) dufp.ExecutorStats {
	a.Submitted -= b.Submitted
	a.Started -= b.Started
	a.Completed -= b.Completed
	a.Failed -= b.Failed
	a.CacheHits -= b.CacheHits
	a.DiskHits -= b.DiskHits
	a.Coalesced -= b.Coalesced
	return a
}
