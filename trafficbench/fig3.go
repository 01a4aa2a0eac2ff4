package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"time"

	"dufp"
	"dufp/internal/api"
	"dufp/internal/exec"
	"dufp/internal/experiment"
	"dufp/internal/obs/span"
)

// campaign is the paper's Fig-3 protocol (§V): every application ×
// {baseline, DUF and DUFP at 0/5/10/20 %} × Runs repetitions, as
// experiment.RunGrid runs it, together with the same runs as a spec
// list in RunGrid's order for addressing them and digesting outputs.
type campaign struct {
	opts  experiment.Options
	specs []dufp.RunSpec
	// shape names the campaign's size in the digest table.
	shape string
}

func newCampaign(cfg config) (campaign, error) {
	opts := experiment.DefaultOptions()
	opts.Session = dufp.NewSession(dufp.WithSeed(cfg.seed))
	opts.Runs = cfg.campaignRuns
	opts.Apps = cfg.apps
	apps := dufp.Suite()
	if len(cfg.apps) > 0 {
		apps = nil
		for _, name := range cfg.apps {
			a, err := dufp.AppNamed(name)
			if err != nil {
				return campaign{}, err
			}
			apps = append(apps, a)
		}
	}
	appsKey := "all"
	if len(cfg.apps) > 0 {
		appsKey = strings.Join(cfg.apps, "+")
	}
	c := campaign{opts: opts, shape: fmt.Sprintf("fig3/apps=%s/runs=%d", appsKey, opts.Runs)}
	add := func(app dufp.App, gov dufp.Governor) {
		for i := 0; i < opts.Runs; i++ {
			c.specs = append(c.specs, dufp.RunSpec{App: app, Governor: gov, Idx: i})
		}
	}
	for _, app := range apps {
		add(app, dufp.Baseline())
		for _, tol := range opts.Tolerances {
			ctl := dufp.DefaultControlConfig(tol)
			add(app, dufp.DUF(ctl))
			add(app, dufp.DUFP(ctl))
		}
	}
	return c, nil
}

// on returns the campaign's grid options scheduled on exe.
func (c campaign) on(exe *dufp.Executor) experiment.Options {
	o := c.opts
	o.Executor = exe
	return o
}

// runGrid is what a Fig-3 user waits for: the campaign, the Fig 3a–c
// and Fig 4 tables built from it, and the executor's Close, which
// flushes and fsyncs the disk cache. Every run of the campaign gets ctx,
// so a span.Trace on it records all of their stages and rounds.
func (c campaign) runGrid(ctx context.Context, exe *dufp.Executor, spans *spanLog, req string, parent int) (*experiment.Grid, error) {
	opts := c.on(exe)
	opts.Context = ctx
	var g *experiment.Grid
	var err error
	spans.timed(req, "experiment.RunGrid", parent, func() { g, err = experiment.RunGrid(opts) })
	if err == nil {
		spans.timed(req, "experiment.Fig3+Fig4", parent, func() {
			for _, build := range []func(*experiment.Grid) (experiment.Table, error){
				experiment.Fig3a, experiment.Fig3b, experiment.Fig3c, experiment.Fig4,
			} {
				if _, err = build(g); err != nil {
					return
				}
			}
		})
	}
	var closeErr error
	spans.timed(req, "exec.Close", parent, func() { closeErr = exe.Close() })
	return g, errors.Join(err, closeErr)
}

// diskRuns reads the campaign's runs back from exe's disk tier, in
// campaign order, each lookup inside a span; missing counts IDs the
// tier does not hold.
func (c campaign) diskRuns(exe *dufp.Executor, spans *spanLog) (runs []dufp.Run, missing int) {
	session := c.opts.Session
	for i, spec := range c.specs {
		id := session.RunID(spec)
		var run dufp.Run
		var ok bool
		spans.timed("probe-"+strconv.Itoa(i), "exec.DiskGetByID", -1, func() { run, ok = exe.DiskGetByID(id) })
		if !ok {
			missing++
		}
		runs = append(runs, run)
	}
	return runs, missing
}

// checkDigest reads the campaign's runs back from exe's disk tier,
// checks their digest against the committed table and returns them.
func (c campaign) checkDigest(e *env, p *phase, exe *dufp.Executor) []dufp.Run {
	runs, missing := c.diskRuns(exe, p.spans)
	if missing > 0 {
		p.mismatch("%d of %d campaign runs missing from the disk cache", missing, len(c.specs))
	}
	e.digests.check(e, p, c.shape, digestRuns(runs))
	if p.traced {
		p.layers["diskcache.get_us"] = quantile(p.spans.durations("exec.DiskGetByID", time.Microsecond), 0.5)
	}
	return runs
}

// probeCodecs times run addressing (Session.RunID) and the daemon's
// wire codec on a workload's inputs: each RunSpec as a client sends it,
// and each run's status body as GET /v1/runs/{id} returns it — bodies
// when given, else built from runs. Every body must decode to its run.
func probeCodecs(p *phase, session dufp.Session, specs []dufp.RunSpec, runs []dufp.Run, bodies [][]byte) {
	for i, spec := range specs {
		req := "probe-" + strconv.Itoa(i)
		var id string
		var err error
		p.spans.timed(req, "dufp.Session.RunID", -1, func() { id = session.RunID(spec) })
		p.spans.timed(req, "json.Marshal(RunSpec)", -1, func() { _, err = json.Marshal(spec) })
		if err != nil {
			p.mismatch("encoding spec %s: %v", id, err)
		}
		var body []byte
		if bodies != nil {
			body = bodies[i]
		} else if body, err = json.Marshal(api.RunStatus{ID: id, State: api.StateDone, App: spec.App.Name,
			Governor: spec.Governor.ID(), Idx: spec.Idx, Run: &runs[i]}); err != nil {
			p.mismatch("encoding status of %s: %v", id, err)
			continue
		}
		var got api.RunStatus
		p.spans.timed(req, "json.Unmarshal(RunStatus)", -1, func() { err = json.Unmarshal(body, &got) })
		if err != nil || got.Run == nil || !sameRun(*got.Run, runs[i]) {
			p.mismatch("status body of %s does not decode to its run", id)
		}
	}
	p.layers["dufp.run_id_us_p50"] = quantile(p.spans.durations("dufp.Session.RunID", time.Microsecond), 0.5)
	p.layers["dufp.wire_encode_us"] = quantile(p.spans.durations("json.Marshal(RunSpec)", time.Microsecond), 0.5)
	p.layers["dufp.wire_decode_us"] = quantile(p.spans.durations("json.Unmarshal(RunStatus)", time.Microsecond), 0.5)
}

// probeSubmit times Executor.Submit of keys already in one of exe's
// cache tiers; every call must be served without a simulation.
func probeSubmit(p *phase, exe *dufp.Executor, keys []dufp.RunKey) {
	before := exe.Stats().Started
	for i, key := range keys {
		var err error
		p.spans.timed("probe-"+strconv.Itoa(i), "exec.Submit", -1, func() { _, err = exe.Submit(context.Background(), key) })
		if err != nil {
			p.mismatch("submit probe: %v", err)
		}
	}
	if started := exe.Stats().Started - before; started != 0 {
		p.mismatch("submit probe of cached keys started %d simulations", started)
	}
	p.layers["exec.submit_us_p50"] = quantile(p.spans.durations("exec.Submit", time.Microsecond), 0.5)
}

// simLayers reads the simulator and controller counters the window
// moved.
func simLayers(p *phase) {
	runs := p.delta("sim_runs_total", nil)
	ticks := p.delta("sim_ticks_total", nil)
	p.layers["sim.runs"] = runs
	p.layers["sim.ticks"] = ticks
	p.layers["sim.skipped_rounds"] = p.delta("sim_skipped_rounds_total", nil)
	if ticks > 0 {
		p.layers["sim.ns_per_tick"] = p.delta("sim_wall_seconds_total", nil) * 1e9 / ticks
		p.layers["sim.fast_tick_share"] = p.delta("sim_fast_ticks_total", nil) / ticks
	}
	for _, k := range controlKinds {
		p.layers["control.decisions."+k] = p.delta("control_events_total", map[string]string{"kind": k})
	}
	p.layers["diskcache.write_s"] = p.delta("exec_disk_write_seconds", nil)
	p.layers["api.rejected"] = p.delta("api_rejected_total", nil)
}

// execLayers reads the executor's counters, summed over the executors
// the window used, and the re-executions their watches saw.
func execLayers(p *phase, st dufp.ExecutorStats, resimulated int) {
	p.layers["exec.submitted"] = float64(st.Submitted)
	p.layers["exec.started"] = float64(st.Started)
	p.layers["exec.cache_hits"] = float64(st.CacheHits)
	p.layers["exec.disk_hits"] = float64(st.DiskHits)
	p.layers["exec.coalesced"] = float64(st.Coalesced)
	if st.Submitted > 0 {
		p.layers["exec.reuse_ratio"] = float64(st.CacheHits+st.DiskHits+st.Coalesced) / float64(st.Submitted)
	}
	p.layers["exec.resimulated"] = float64(resimulated)
}

// diskLayers reads the disk tier's size and failure counters.
func diskLayers(p *phase, dir string, records int64, st dufp.DiskCacheStats) {
	p.layers["diskcache.records"] = float64(records)
	p.layers["diskcache.bytes"] = float64(dirBytes(dir))
	p.layers["diskcache.corrupt"] = float64(st.Corrupt)
	p.layers["diskcache.stale"] = float64(st.Stale)
}

// dirBytes sums the sizes of a cache directory's segment files.
func dirBytes(dir string) int64 {
	segs, _ := filepath.Glob(filepath.Join(dir, "runs-*"))
	var n int64
	for _, s := range segs {
		if fi, err := os.Stat(s); err == nil {
			n += fi.Size()
		}
	}
	return n
}

func addStats(a, b dufp.ExecutorStats) dufp.ExecutorStats {
	a.Submitted += b.Submitted
	a.Started += b.Started
	a.Completed += b.Completed
	a.Failed += b.Failed
	a.CacheHits += b.CacheHits
	a.DiskHits += b.DiskHits
	a.Coalesced += b.Coalesced
	return a
}

func addDiskStats(a, b dufp.DiskCacheStats) dufp.DiskCacheStats {
	a.Corrupt += b.Corrupt
	a.Stale += b.Stale
	return a
}

// checkIdentity checks the executor's accounting identity: every
// submission resolves exactly one way.
func checkIdentity(p *phase, st dufp.ExecutorStats) {
	if st.Submitted != st.CacheHits+st.DiskHits+st.Coalesced+st.Started {
		p.mismatch("executor identity broken: %+v", st)
	}
}

// execWatch observes an executor's event stream: per-run wall times,
// failures, and — on a traced pass — the keys it served and every
// execution of a run the workload had already completed.
type execWatch struct {
	traced bool
	// want selects the event kind whose keys are kept for the submit
	// probe, up to keep of them.
	want dufp.ExecutorEventKind
	keep int

	mu     sync.Mutex
	walls  []float64
	failed int
	keys   []dufp.RunKey
	done   map[string]bool
	resim  int
}

func newExecWatch(want dufp.ExecutorEventKind, keep int) *execWatch {
	return &execWatch{want: want, keep: keep, done: map[string]bool{}}
}

// setTraced switches key and re-execution tracking on for a traced
// pass.
func (w *execWatch) setTraced(traced bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.traced = traced
}

// markDone records run IDs completed before the window.
func (w *execWatch) markDone(ids ...string) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, id := range ids {
		w.done[id] = true
	}
}

func (w *execWatch) observe(ev dufp.ExecutorEvent) {
	w.mu.Lock()
	defer w.mu.Unlock()
	switch ev.Kind {
	case dufp.ExecCompleted:
		w.walls = append(w.walls, ms(ev.Wall))
	case dufp.ExecFailed:
		w.failed++
	}
	if !w.traced {
		return
	}
	if ev.Kind == w.want && len(w.keys) < w.keep {
		w.keys = append(w.keys, ev.Key)
	}
	id := exec.RunID(ev.Key.ID())
	switch ev.Kind {
	case dufp.ExecStarted:
		if w.done[id] {
			w.resim++
		}
	case dufp.ExecCompleted:
		w.done[id] = true
	}
}

func (w *execWatch) resimulated() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.resim
}

func (w *execWatch) servedKeys() []dufp.RunKey {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]dufp.RunKey(nil), w.keys...)
}

// runStats collects the span-derived timings of finished run traces;
// the queue and dispatch stages exist only on the daemon's traces.
type runStats struct {
	mu                  sync.Mutex
	setupUS, roundUS    []float64
	waitMS              []float64
	queueMS, dispatchMS []float64
}

// add records the stage timings of a finished trace — one daemon run's,
// or a whole Fig-3 campaign's: its setup and worker-slot wait spans, its
// control rounds, and the self times of its queue and dispatch stages.
func (s *runStats) add(tr *span.Trace) {
	spans, rounds := tr.Spans(), tr.Rounds()
	sum := tr.Summary()
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, sp := range spans {
		switch sp.Name {
		case span.StageSetup:
			s.setupUS = append(s.setupUS, us(sp.End-sp.Start))
		case span.StageWait:
			s.waitMS = append(s.waitMS, ms(sp.End-sp.Start))
		}
	}
	for _, r := range rounds {
		s.roundUS = append(s.roundUS, us(r.End-r.Start))
	}
	s.queueMS = append(s.queueMS, ms(sum.Stage(span.StageQueue)))
	s.dispatchMS = append(s.dispatchMS, ms(sum.Stage(span.StageDispatch)))
}

func (s *runStats) report(p *phase) {
	p.layers["api.queue_wait_ms_p50"] = quantile(s.queueMS, 0.5)
	p.layers["api.queue_wait_ms_p95"] = quantile(s.queueMS, 0.95)
	p.layers["api.dispatch_ms_p50"] = quantile(s.dispatchMS, 0.5)
	p.layers["dufp.setup_us_p50"] = quantile(s.setupUS, 0.5)
	p.layers["control.round_us_p50"] = quantile(s.roundUS, 0.5)
	p.layers["control.round_us_p95"] = quantile(s.roundUS, 0.95)
	p.layers["exec.slot_wait_ms_p50"] = quantile(s.waitMS, 0.5)
	p.layers["exec.slot_wait_ms_p95"] = quantile(s.waitMS, 0.95)
}

// oracleCheck re-runs a seeded sample of runs in process on a private
// executor under the exact per-tick physics loop and requires each to
// match its workload result bit for bit.
func oracleCheck(ctx context.Context, p *phase, seed int64, session dufp.Session, specs []dufp.RunSpec, got func(i int) (dufp.Run, bool), n int) {
	exact := session
	exact.ExactPhysics = true
	exact = exact.OnExecutor(dufp.NewExecutor())
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	for _, i := range rng.Perm(len(specs))[:min(n, len(specs))] {
		want, ok := got(i)
		if !ok {
			continue
		}
		res, err := exact.Run(ctx, specs[i])
		if err != nil {
			p.mismatch("oracle run %d: %v", i, err)
			continue
		}
		if !sameRun(res.Run, want) {
			p.mismatch("run %d (%s/%s #%d) differs from its in-process exact-physics rerun",
				i, specs[i].App.Name, specs[i].Governor.ID(), specs[i].Idx)
		}
	}
}

// fig3Cold is a series of Fig-3 campaigns, each about to run on its
// own empty disk cache.
type fig3Cold struct {
	e      *env
	c      campaign
	caches []*coldCache
}

// coldCache is one campaign's empty cache directory and its executor.
type coldCache struct {
	dir     string
	exe     *dufp.Executor
	watch   *execWatch
	openDur time.Duration
	closed  bool
}

// campaigns is the number of back-to-back cold campaigns one run
// measures: one per started seven seconds of traffic, about what one
// campaign takes on the reference host.
func campaigns(seconds int) int { return max(1, (seconds+6)/7) }

func setupFig3Cold(e *env) (fixture, error) {
	c, err := newCampaign(e.cfg)
	if err != nil {
		return nil, err
	}
	f := &fig3Cold{e: e, c: c}
	for range campaigns(e.cfg.seconds) {
		dir, err := e.newDir("cold")
		if err != nil {
			f.close()
			return nil, err
		}
		cc := &coldCache{dir: dir, watch: newExecWatch(dufp.ExecCompleted, len(c.specs))}
		start := time.Now()
		cc.exe = dufp.NewExecutor(dufp.ExecDiskCache(dir), dufp.ExecObserver(cc.watch.observe))
		cc.openDur = time.Since(start)
		f.caches = append(f.caches, cc)
		if w := cc.exe.DiskWarning(); w != "" {
			f.close()
			return nil, errors.New(w)
		}
	}
	return f, nil
}

func (f *fig3Cold) close() error {
	var errs []error
	for _, cc := range f.caches {
		errs = append(errs, cc.close())
	}
	return errors.Join(errs...)
}

func (cc *coldCache) close() error {
	if cc.closed {
		return nil
	}
	cc.closed = true
	return cc.exe.Close()
}

func (f *fig3Cold) run(p *phase) error {
	ctx := context.Background()
	n := len(f.c.specs)
	errs := make([]error, len(f.caches))
	// A traced pass gives each campaign one span.Trace, which records the
	// stages and control rounds of all of its runs.
	traces := make([]*span.Trace, len(f.caches))

	p.begin()
	for i, cc := range f.caches {
		cc.watch.setTraced(p.traced)
		req := "campaign-" + strconv.Itoa(i)
		if p.traced {
			traces[i] = span.New(req)
		}
		_, errs[i] = f.c.runGrid(span.NewContext(ctx, traces[i]), cc.exe, p.spans, req, -1)
		cc.closed = true
		traces[i].Finish()
	}
	p.ops = int64(n * len(f.caches))
	p.end()

	var total dufp.ExecutorStats
	var disk dufp.DiskCacheStats
	var records int64
	var runs []dufp.Run
	for i, cc := range f.caches {
		p.attempted += int64(n)
		p.failed += int64(cc.watch.failed)
		if errs[i] != nil {
			fmt.Fprintln(f.e.log, "trafficbench: campaign:", errs[i])
			p.failed = max(p.failed, 1)
		}
		p.lat = append(p.lat, cc.watch.walls...)
		st := cc.exe.Stats()
		checkIdentity(p, st)
		if st.Started != int64(n) || st.Completed != int64(n) {
			p.mismatch("campaign of %d distinct runs started %d, completed %d", n, st.Started, st.Completed)
		}
		total = addStats(total, st)
		ds, _ := cc.exe.DiskCacheStats()
		disk = addDiskStats(disk, ds)
		records += ds.Loaded + ds.Written
	}
	if p.traced {
		simLayers(p)
		resim := 0
		stats := &runStats{}
		for i, cc := range f.caches {
			resim += cc.watch.resimulated()
			stats.add(traces[i])
		}
		execLayers(p, total, resim)
		stats.report(p)
		p.layers["diskcache.open_ms"] = ms(f.caches[0].openDur)
		diskLayers(p, f.caches[0].dir, records/int64(len(f.caches)), disk)
	}
	for _, cc := range f.caches {
		runs = f.c.checkDigest(f.e, p, cc.exe)
	}
	if p.traced {
		probeCodecs(p, f.c.opts.Session, f.c.specs, runs, nil)
		probeSubmit(p, f.caches[0].exe, f.caches[0].watch.servedKeys())
	}
	oracleCheck(ctx, p, f.e.cfg.seed, f.c.opts.Session, f.c.specs, func(i int) (dufp.Run, bool) { return runs[i], true }, 8)
	return nil
}

// fig3Warm is a disk-cache directory the campaign has filled, about to
// be replayed.
type fig3Warm struct {
	e   *env
	c   campaign
	dir string
	ref *experiment.Grid
}

func setupFig3Warm(e *env) (fixture, error) {
	c, err := newCampaign(e.cfg)
	if err != nil {
		return nil, err
	}
	dir, err := e.newDir("warm")
	if err != nil {
		return nil, err
	}
	exe := dufp.NewExecutor(dufp.ExecDiskCache(dir))
	if w := exe.DiskWarning(); w != "" {
		return nil, errors.New(w)
	}
	g, err := c.runGrid(context.Background(), exe, nil, "", -1)
	if err != nil {
		return nil, fmt.Errorf("filling the cache: %w", err)
	}
	return &fig3Warm{e: e, c: c, dir: dir, ref: g}, nil
}

func (f *fig3Warm) close() error { return nil }

// replays is the number of back-to-back replays one run measures.
func (f *fig3Warm) replays() int { return 25 * f.e.cfg.seconds }

func (f *fig3Warm) run(p *phase) error {
	watch := newExecWatch(dufp.ExecDiskHit, len(f.c.specs))
	watch.setTraced(p.traced)
	session := f.c.opts.Session
	for _, spec := range f.c.specs {
		watch.markDone(session.RunID(spec))
	}
	var total dufp.ExecutorStats
	var disk dufp.DiskCacheStats
	var last *dufp.Executor
	n := f.replays()

	p.begin()
	for i := 0; i < n; i++ {
		if err := p.between(i, n); err != nil {
			return err
		}
		req := "replay-" + strconv.Itoa(i)
		root := p.spans.begin(req, "replay", -1)
		start := time.Now()
		var exe *dufp.Executor
		p.spans.timed(req, "dufp.NewExecutor", root, func() {
			exe = dufp.NewExecutor(dufp.ExecDiskCache(f.dir), dufp.ExecObserver(watch.observe))
		})
		g, err := f.c.runGrid(context.Background(), exe, p.spans, req, root)
		d := time.Since(start)
		p.spans.end(root)
		p.lat = append(p.lat, ms(d))
		p.attempted++
		switch {
		case err != nil:
			p.failed++
			fmt.Fprintln(f.e.log, "trafficbench: replay:", err)
		case !reflect.DeepEqual(g.Baselines, f.ref.Baselines) || !reflect.DeepEqual(g.Cells, f.ref.Cells):
			p.mismatch("replay %d summaries differ from the campaign that filled the cache", i)
		}
		total = addStats(total, exe.Stats())
		ds, _ := exe.DiskCacheStats()
		disk = addDiskStats(disk, ds)
		last = exe
	}
	p.ops = int64(n * len(f.c.specs))
	p.end()

	checkIdentity(p, total)
	if simulated := p.delta("sim_runs_total", nil); simulated != 0 || total.Started != 0 {
		p.mismatch("warm replays simulated %v runs (executor started %d)", simulated, total.Started)
	}
	if p.traced {
		simLayers(p)
		execLayers(p, total, watch.resimulated())
		p.layers["diskcache.open_ms"] = quantile(p.spans.durations("dufp.NewExecutor", time.Millisecond), 0.5)
		ds, _ := last.DiskCacheStats()
		diskLayers(p, f.dir, ds.Loaded, disk)
	}
	runs := f.c.checkDigest(f.e, p, last)
	if p.traced {
		probeCodecs(p, session, f.c.specs, runs, nil)
		probe := dufp.NewExecutor(dufp.ExecDiskCache(f.dir))
		probeSubmit(p, probe, watch.servedKeys())
		if err := probe.Close(); err != nil {
			return err
		}
	}
	return nil
}
