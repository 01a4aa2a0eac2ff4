package api

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"dufp"
	"dufp/internal/metrics"
	"dufp/internal/obs"
	"dufp/internal/obs/span"
)

// Submission errors, mapped to HTTP status codes by the server.
var (
	// ErrQueueFull rejects a submission because the bounded job queue is
	// at capacity — the client should back off and retry (HTTP 429).
	ErrQueueFull = errors.New("api: job queue full")
	// ErrDraining rejects a submission because the daemon is shutting
	// down (HTTP 503).
	ErrDraining = errors.New("api: daemon draining")
	// ErrNotSerializable rejects a run whose governor has no wire form.
	ErrNotSerializable = errors.New("api: governor is not serializable")
)

// Config parameterises a daemon.
type Config struct {
	// Session is the base experiment session campaigns run under.
	Session dufp.Session
	// Executor schedules the actual simulations; nil builds a private
	// one. Give it a disk cache (dufp.ExecDiskCache) to make the daemon
	// durable: results survive restarts and journal replay turns into
	// cache reads.
	Executor *dufp.Executor
	// QueueDepth bounds the job queue in front of the executor; once
	// full, single-run submissions fail with ErrQueueFull and campaign
	// feeders block. 0 means 256.
	QueueDepth int
	// DataDir holds the campaign journal (campaigns.jsonl). Empty
	// disables campaign durability; runs are still durable through the
	// executor's disk cache.
	DataDir string
	// Registry receives the api_* metrics; nil means obs.Default().
	Registry *obs.Registry
	// Logf logs daemon lifecycle events; nil discards them.
	Logf func(format string, args ...any)
	// SpanSlowThreshold, when positive, is the slow-run budget: any run
	// whose queue-to-completion wall clock exceeds it has its full span
	// tree written through Logf and counted in api_slow_runs_total.
	SpanSlowThreshold time.Duration
	// SampleCapacity bounds the run record store: how many recently
	// dispatched runs keep their trace samples for GET
	// /v1/runs/{id}/samples and their span trace for GET
	// /v1/runs/{id}/trace (oldest evicted). Non-positive means
	// DefaultSampleCapacity.
	SampleCapacity int
	// SamplePointsPerSocket bounds each retained run's reservoir;
	// non-positive means trace.DefaultReservoirPoints. Longer runs keep
	// an evenly decimated view instead of growing.
	SamplePointsPerSocket int
}

// job is one tracked run. Mutable fields are guarded by Daemon.mu; the
// trace and its queue-stage handle are written at creation and then
// touched only by the dispatching worker, which hands the trace to the
// run's record and clears them.
type job struct {
	id      string
	spec    dufp.RunSpec
	session dufp.Session

	tr    *span.Trace
	qspan span.Handle

	state string
	run   dufp.Run
	err   string
	camps []*campaign
	subs  map[chan RunStatus]struct{}
}

// campaign is one tracked campaign. Guarded by Daemon.mu.
type campaign struct {
	id     string
	spec   CampaignSpec
	jobs   []*job
	groups []string // group label per job, parallel to jobs

	done, failed int
	firstErr     string
	summaries    []GroupSummary
	subs         map[chan CampaignStatus]struct{}
}

func (c *campaign) state() string {
	switch {
	case c.done+c.failed < len(c.jobs):
		return StateRunning
	case c.failed > 0:
		return StateFailed
	default:
		return StateDone
	}
}

// Daemon is the campaign daemon core: a bounded job queue in front of
// the run executor, registries of jobs and campaigns, an SSE fan-out,
// and a journal that lets a restarted daemon resume campaigns from the
// executor's disk cache. All methods are safe for concurrent use.
type Daemon struct {
	cfg     Config
	session dufp.Session
	exe     *dufp.Executor
	reg     *obs.Registry
	logf    func(string, ...any)
	start   time.Time

	queue    chan *job
	nworkers int
	ctx      context.Context
	cancel   context.CancelFunc
	workers  sync.WaitGroup
	feeders  sync.WaitGroup

	mu       sync.Mutex
	jobs     map[string]*job
	camps    map[string]*campaign
	draining bool

	journal *os.File
	records *records

	mQueueDepth *obs.Gauge
	mJobs       *obs.CounterVec
	mCampaigns  *obs.Counter
	mRejected   *obs.CounterVec
	mSubs       *obs.Gauge
	mReqs       *obs.CounterVec
	mReqSec     *obs.HistogramVec
}

// journalEntry is one line of campaigns.jsonl.
type journalEntry struct {
	ID   string       `json:"id"`
	Spec CampaignSpec `json:"spec"`
}

// New starts a daemon: dispatchers come up, then the campaign journal
// (if any) is replayed, resubmitting every recorded campaign. Replayed
// runs whose results are in the executor's disk cache complete without
// re-simulation — that is the resume path.
func New(cfg Config) (*Daemon, error) {
	exe := cfg.Executor
	if exe == nil {
		exe = dufp.NewExecutor()
	}
	depth := cfg.QueueDepth
	if depth <= 0 {
		depth = 256
	}
	// Dispatchers number twice the executor's workers: with every
	// executor slot busy, as many more dispatchers hold a dequeued job
	// that waits for a slot (the trace's wait stage, not its queue
	// stage). The executor alone bounds concurrent simulations.
	workers := 2 * exe.Workers()
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	reg := cfg.Registry
	if reg == nil {
		reg = obs.Default()
	}

	ctx, cancel := context.WithCancel(context.Background())
	d := &Daemon{
		cfg:      cfg,
		session:  cfg.Session.OnExecutor(exe),
		exe:      exe,
		reg:      reg,
		logf:     logf,
		start:    time.Now(),
		queue:    make(chan *job, depth),
		nworkers: workers,
		ctx:      ctx,
		cancel:   cancel,
		jobs:     make(map[string]*job),
		camps:    make(map[string]*campaign),

		mQueueDepth: reg.Gauge("api_queue_depth",
			"Jobs waiting in the daemon's bounded queue.").With(),
		mJobs: reg.Counter("api_jobs_total",
			"Jobs finished by the daemon, by terminal state.", "state"),
		mCampaigns: reg.Counter("api_campaigns_total",
			"Campaigns accepted by the daemon.").With(),
		mRejected: reg.Counter("api_rejected_total",
			"Submissions rejected by the daemon, by reason.", "reason"),
		mSubs: reg.Gauge("api_sse_subscribers",
			"Live SSE subscriptions across runs and campaigns.").With(),
		mReqs: reg.Counter("api_http_requests_total",
			"API requests served, by route and status code.", "route", "code"),
		mReqSec: reg.Histogram("api_http_request_seconds",
			"API request latency by route.", obs.ExpBuckets(1e-4, 2.5, 12), "route"),
		records: newRecords(cfg.SampleCapacity, cfg.SamplePointsPerSocket, cfg.SpanSlowThreshold,
			reg.Counter("api_slow_runs_total",
				"Runs whose wall clock exceeded the span slow-run budget.").With(), logf),
	}

	for i := 0; i < workers; i++ {
		d.workers.Add(1)
		go d.dispatch()
	}

	if cfg.DataDir != "" {
		if err := d.openJournal(); err != nil {
			cancel()
			return nil, err
		}
	}
	return d, nil
}

// Workers returns the daemon's dispatch width: how many goroutines pull
// queued jobs toward the executor concurrently.
func (d *Daemon) Workers() int { return d.nworkers }

// Spans returns the span traces of the runs the daemon's record store
// holds.
func (d *Daemon) Spans() SpanTraces { return SpanTraces{d.records} }

// RunSamples pages the retained trace samples of a dispatched run:
// socket selects the series, offset/limit cut the page (limit <= 0
// means the remainder). ok is false when the run was never dispatched
// by this daemon generation or its record has been evicted.
func (d *Daemon) RunSamples(id string, socket, offset, limit int) (RunSamples, bool) {
	r, ok := d.records.reservoir(id)
	if !ok {
		return RunSamples{}, false
	}
	return pageSamples(id, r, socket, offset, limit), true
}

// runResultWithTrace assembles the wire v1.1 result a ?include=trace
// request embeds: the measurement (once done) plus the retained —
// reservoir-decimated — trace series and its exact streaming summary.
func (d *Daemon) runResultWithTrace(id string) (*dufp.RunResult, bool) {
	r, ok := d.records.reservoir(id)
	if !ok {
		return nil, false
	}
	sum := r.Summary()
	res := &dufp.RunResult{Trace: r, TraceSummary: &sum}
	d.mu.Lock()
	if j, tracked := d.jobs[id]; tracked && j.state == StateDone {
		res.Run = j.run
	}
	d.mu.Unlock()
	return res, true
}

// openJournal replays campaigns.jsonl and reopens it for appending.
func (d *Daemon) openJournal() error {
	if err := os.MkdirAll(d.cfg.DataDir, 0o755); err != nil {
		return fmt.Errorf("api: creating data dir: %w", err)
	}
	path := filepath.Join(d.cfg.DataDir, "campaigns.jsonl")
	if f, err := os.Open(path); err == nil {
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
		replayed := 0
		for sc.Scan() {
			var e journalEntry
			if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
				continue // torn last line of a killed writer
			}
			if _, err := d.submitCampaign(e.Spec, false); err != nil {
				d.logf("api: journal replay of %s: %v", e.ID, err)
				continue
			}
			replayed++
		}
		f.Close()
		if replayed > 0 {
			d.logf("api: replayed %d campaigns from %s", replayed, path)
		}
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("api: opening journal: %w", err)
	}
	d.journal = f
	return nil
}

// dispatch is one worker: it pulls queued jobs and runs them through
// the session's executor, which bounds the actual simulation
// concurrency and serves cached results.
func (d *Daemon) dispatch() {
	defer d.workers.Done()
	for {
		select {
		case <-d.ctx.Done():
			return
		case j := <-d.queue:
			d.mQueueDepth.Set(float64(len(d.queue)))
			d.setRunning(j)
			// The job hands its trace to the run's record, so a done job
			// pins nothing the bounded store has evicted.
			tr := j.tr
			j.qspan.End()
			j.tr, j.qspan = nil, span.Handle{}
			dspan := tr.Start(span.StageDispatch)
			// The run's trace streams into its record's bounded reservoir
			// (GET /v1/runs/{id}/samples). The sink is a pure observer: the
			// run stays bit-identical, and its result is still written
			// through to the executor's cache tiers.
			rec := d.records.start(j.id)
			res, err := j.session.Run(span.NewContext(d.ctx, tr), j.spec, dufp.WithTraceSink(rec.samples))
			dspan.End()
			d.records.attach(rec, tr)
			d.complete(j, res.Run, err)
		}
	}
}

// setRunning transitions a queued job and notifies its subscribers.
func (d *Daemon) setRunning(j *job) {
	d.mu.Lock()
	defer d.mu.Unlock()
	j.state = StateRunning
	status := d.runStatusLocked(j)
	for ch := range j.subs {
		notifyLocked(ch, status, false)
	}
}

// complete finalises a job, feeds its campaigns and notifies
// subscribers; terminal-state channels are closed so SSE handlers
// finish their streams.
func (d *Daemon) complete(j *job, run dufp.Run, err error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err != nil {
		j.state, j.err = StateFailed, err.Error()
	} else {
		j.state, j.run = StateDone, run
	}
	d.mJobs.With(j.state).Inc()
	status := d.runStatusLocked(j)
	for ch := range j.subs {
		notifyLocked(ch, status, true)
	}
	j.subs = nil

	for _, c := range j.camps {
		if err != nil {
			c.failed++
			if c.firstErr == "" {
				c.firstErr = fmt.Sprintf("%s: %v", j.id, err)
			}
		} else {
			c.done++
		}
		ended := terminal(c.state())
		if ended {
			d.summarizeLocked(c)
		}
		status := d.campaignStatusLocked(c, false)
		for ch := range c.subs {
			notifyLocked(ch, status, ended)
		}
		if ended {
			c.subs = nil
		}
	}
}

// notifyLocked offers one snapshot to a subscriber without blocking — a
// subscriber whose buffer is full misses it — and closes the channel
// after the last one. Caller holds d.mu: a subscription's cancel and the
// final snapshot of another job of the same campaign close channels
// under it, so a send outside it could hit a closed channel.
func notifyLocked[T any](ch chan T, v T, last bool) {
	select {
	case ch <- v:
	default:
	}
	if last {
		close(ch)
	}
}

// SubmitRun accepts one run for execution and returns its status.
// Submission is idempotent: the run's ID is the content address of
// (session, spec), so resubmitting returns the tracked — or already
// completed — job. A run whose result is already in the executor's disk
// cache completes immediately without consuming a queue slot.
func (d *Daemon) SubmitRun(spec dufp.RunSpec) (RunStatus, error) {
	if !spec.Governor.Serializable() {
		return RunStatus{}, ErrNotSerializable
	}
	if err := spec.App.Validate(); err != nil {
		return RunStatus{}, err
	}
	// Addressing renders fingerprints; keep it outside d.mu.
	id := d.session.RunID(spec)
	d.mu.Lock()
	if d.draining {
		d.mu.Unlock()
		d.mRejected.With("draining").Inc()
		return RunStatus{}, ErrDraining
	}
	j, status, fresh := d.trackLocked(id, d.session, spec)
	d.mu.Unlock()
	if !fresh || terminal(status.State) {
		return status, nil
	}
	select {
	case d.queue <- j:
		d.mQueueDepth.Set(float64(len(d.queue)))
		return status, nil
	default:
		d.mu.Lock()
		delete(d.jobs, j.id)
		d.mu.Unlock()
		d.mRejected.With("queue_full").Inc()
		return RunStatus{}, ErrQueueFull
	}
}

// trackLocked registers (or finds) the job for a spec whose RunID under
// session is id. Fresh jobs whose result is already on disk are
// completed in place — the restart resume path. Caller holds d.mu.
func (d *Daemon) trackLocked(id string, session dufp.Session, spec dufp.RunSpec) (*job, RunStatus, bool) {
	if j, ok := d.jobs[id]; ok {
		return j, d.runStatusLocked(j), false
	}
	j := &job{id: id, spec: spec, session: session, state: StateQueued}
	d.jobs[id] = j
	if run, ok := d.exe.DiskGetByID(id); ok {
		j.state, j.run = StateDone, run
	} else {
		// The trace starts at acceptance, so the queue stage measures
		// the full wait — including a campaign feeder blocking on queue
		// capacity — and the root total is the run's end-to-end wall
		// clock inside the daemon.
		j.tr = span.New(id)
		j.qspan = j.tr.Start(span.StageQueue)
	}
	return j, d.runStatusLocked(j), true
}

// SubmitCampaign accepts a campaign, expands it into member runs and
// starts a feeder that enqueues them; it returns immediately with the
// campaign's status. Submission is idempotent by deterministic campaign
// ID, and accepted campaigns are journaled for restart resume.
func (d *Daemon) SubmitCampaign(spec CampaignSpec) (CampaignStatus, error) {
	return d.submitCampaign(spec, true)
}

func (d *Daemon) submitCampaign(spec CampaignSpec, journal bool) (CampaignStatus, error) {
	norm, err := spec.normalize()
	if err != nil {
		return CampaignStatus{}, err
	}
	id, err := CampaignID(norm)
	if err != nil {
		return CampaignStatus{}, err
	}
	jobSpecs, err := expand(norm, d.session)
	if err != nil {
		return CampaignStatus{}, err
	}
	// A draining daemon or a known campaign answers without addressing
	// the runs.
	d.mu.Lock()
	status, answered, err := d.answerCampaignLocked(id)
	d.mu.Unlock()
	if answered {
		return status, err
	}
	// Address the member runs before taking d.mu: a Fig-3 grid is 900
	// RunIDs, and status reads and submits must not wait behind them.
	ids := make([]string, len(jobSpecs))
	for i, js := range jobSpecs {
		ids[i] = js.session.RunID(js.spec)
	}

	d.mu.Lock()
	// Either may have changed while the lock was released.
	if status, answered, err := d.answerCampaignLocked(id); answered {
		d.mu.Unlock()
		return status, err
	}
	c := &campaign{id: id, spec: norm}
	var pending []*job
	for i, js := range jobSpecs {
		j, _, fresh := d.trackLocked(ids[i], js.session, js.spec)
		c.jobs = append(c.jobs, j)
		c.groups = append(c.groups, js.group)
		j.camps = append(j.camps, c)
		switch {
		case j.state == StateDone:
			c.done++
		case j.state == StateFailed:
			c.failed++
			if c.firstErr == "" {
				c.firstErr = fmt.Sprintf("%s: %s", j.id, j.err)
			}
		case fresh:
			pending = append(pending, j)
		}
	}
	if terminal(c.state()) {
		d.summarizeLocked(c)
	}
	d.camps[id] = c
	status = d.campaignStatusLocked(c, false)
	d.mu.Unlock()
	d.mCampaigns.Inc()

	if journal && d.journal != nil {
		if b, err := json.Marshal(journalEntry{ID: id, Spec: norm}); err == nil {
			d.journal.Write(append(b, '\n'))
			d.journal.Sync()
		}
	}

	if len(pending) > 0 {
		d.feeders.Add(1)
		go d.feed(pending)
	}
	d.logf("api: campaign %s accepted: %d runs (%d already complete)",
		id, len(c.jobs), c.done+c.failed)
	return status, nil
}

// answerCampaignLocked answers a campaign submission that needs no new
// work: a draining daemon rejects it, and an accepted campaign returns
// its status, which makes submission idempotent. answered is false when
// the campaign must be expanded and tracked. Caller holds d.mu.
func (d *Daemon) answerCampaignLocked(id string) (status CampaignStatus, answered bool, err error) {
	if d.draining {
		d.mRejected.With("draining").Inc()
		return CampaignStatus{}, true, ErrDraining
	}
	if c, ok := d.camps[id]; ok {
		return d.campaignStatusLocked(c, false), true, nil
	}
	return CampaignStatus{}, false, nil
}

// feed enqueues a campaign's fresh jobs, blocking on queue capacity —
// campaign fan-out applies backpressure instead of failing.
func (d *Daemon) feed(jobs []*job) {
	defer d.feeders.Done()
	for _, j := range jobs {
		select {
		case d.queue <- j:
			d.mQueueDepth.Set(float64(len(d.queue)))
		case <-d.ctx.Done():
			return
		}
	}
}

// summarizeLocked aggregates a finished campaign's groups with the
// paper protocol. Groups with failed runs are skipped; the campaign's
// firstErr already names the cause. Caller holds d.mu.
func (d *Daemon) summarizeLocked(c *campaign) {
	if c.summaries != nil {
		return
	}
	byGroup := make(map[string][]dufp.Run)
	order := []string{}
	for i, j := range c.jobs {
		g := c.groups[i]
		if _, ok := byGroup[g]; !ok {
			order = append(order, g)
		}
		if j.state == StateDone {
			byGroup[g] = append(byGroup[g], j.run)
		} else {
			byGroup[g] = nil
		}
	}
	sort.Strings(order)
	c.summaries = []GroupSummary{}
	for _, g := range order {
		runs := byGroup[g]
		if len(runs) == 0 {
			continue
		}
		sum, err := metrics.Summarize(runs)
		if err != nil {
			continue
		}
		c.summaries = append(c.summaries, GroupSummary{Group: g, Summary: sum})
	}
}

// runStatusLocked snapshots a job. Caller holds d.mu.
func (d *Daemon) runStatusLocked(j *job) RunStatus {
	s := RunStatus{
		ID:       j.id,
		State:    j.state,
		App:      j.spec.App.Name,
		Governor: j.spec.Governor.ID(),
		Idx:      j.spec.Idx,
		Error:    j.err,
	}
	for _, c := range j.camps {
		s.Campaigns = append(s.Campaigns, c.id)
	}
	if j.state == StateDone {
		run := j.run
		s.Run = &run
	}
	return s
}

// campaignStatusLocked snapshots a campaign. Caller holds d.mu.
func (d *Daemon) campaignStatusLocked(c *campaign, detail bool) CampaignStatus {
	s := CampaignStatus{
		ID:        c.id,
		State:     c.state(),
		Kind:      c.spec.Kind,
		Total:     len(c.jobs),
		Done:      c.done,
		Failed:    c.failed,
		Error:     c.firstErr,
		Summaries: c.summaries,
	}
	if detail {
		s.RunIDs = make([]string, len(c.jobs))
		for i, j := range c.jobs {
			s.RunIDs[i] = j.id
		}
	}
	return s
}

// RunStatus returns the status of a tracked run, falling back to the
// executor's disk cache for runs a previous daemon completed: results
// outlive the process that computed them.
func (d *Daemon) RunStatus(id string) (RunStatus, bool) {
	d.mu.Lock()
	j, ok := d.jobs[id]
	if ok {
		s := d.runStatusLocked(j)
		d.mu.Unlock()
		return s, true
	}
	d.mu.Unlock()
	return d.diskRunStatus(id)
}

// diskRunStatus answers for a run that a previous daemon completed: its
// result is in the executor's disk cache, so it is done, and its content
// address names the governor and run index a live daemon reports.
func (d *Daemon) diskRunStatus(id string) (RunStatus, bool) {
	key, run, ok := d.exe.DiskLookupByID(id)
	if !ok {
		return RunStatus{}, false
	}
	return RunStatus{ID: id, State: StateDone, App: run.App, Governor: key.Governor, Idx: key.Idx, Run: &run}, true
}

// Runs lists every tracked run, ordered by ID.
func (d *Daemon) Runs() []RunStatus {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]RunStatus, 0, len(d.jobs))
	for _, j := range d.jobs {
		out = append(out, d.runStatusLocked(j))
	}
	sort.Slice(out, func(i, k int) bool { return out[i].ID < out[k].ID })
	return out
}

// CampaignStatus returns the status of a campaign, including member
// run IDs.
func (d *Daemon) CampaignStatus(id string) (CampaignStatus, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	c, ok := d.camps[id]
	if !ok {
		return CampaignStatus{}, false
	}
	return d.campaignStatusLocked(c, true), true
}

// Campaigns lists every tracked campaign, ordered by ID.
func (d *Daemon) Campaigns() []CampaignStatus {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]CampaignStatus, 0, len(d.camps))
	for _, c := range d.camps {
		out = append(out, d.campaignStatusLocked(c, false))
	}
	sort.Slice(out, func(i, k int) bool { return out[i].ID < out[k].ID })
	return out
}

// SubscribeRun subscribes to a run's state changes. The channel
// receives status snapshots and is closed once the run is terminal (a
// terminal snapshot is sent first); cancel releases the subscription
// early. A run a previous daemon completed gets its status from the disk
// cache, as RunStatus does. ok is false for unknown runs.
func (d *Daemon) SubscribeRun(id string) (ch <-chan RunStatus, cancel func(), ok bool) {
	d.mu.Lock()
	j, found := d.jobs[id]
	if !found {
		d.mu.Unlock()
		status, ok := d.diskRunStatus(id)
		if !ok {
			return nil, nil, false
		}
		c := make(chan RunStatus, 1)
		c <- status
		close(c)
		return c, func() {}, true
	}
	defer d.mu.Unlock()
	c := make(chan RunStatus, 16)
	c <- d.runStatusLocked(j)
	if terminal(j.state) {
		close(c)
		return c, func() {}, true
	}
	if j.subs == nil {
		j.subs = make(map[chan RunStatus]struct{})
	}
	j.subs[c] = struct{}{}
	d.mSubs.Add(1)
	return c, func() {
		d.mu.Lock()
		if _, live := j.subs[c]; live {
			delete(j.subs, c)
			close(c)
		}
		d.mu.Unlock()
		d.mSubs.Add(-1)
	}, true
}

// SubscribeCampaign is SubscribeRun for campaigns: one snapshot per
// member-run completion, closed after the terminal snapshot.
func (d *Daemon) SubscribeCampaign(id string) (ch <-chan CampaignStatus, cancel func(), ok bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	camp, found := d.camps[id]
	if !found {
		return nil, nil, false
	}
	c := make(chan CampaignStatus, 64)
	c <- d.campaignStatusLocked(camp, false)
	if terminal(camp.state()) {
		close(c)
		return c, func() {}, true
	}
	if camp.subs == nil {
		camp.subs = make(map[chan CampaignStatus]struct{})
	}
	camp.subs[c] = struct{}{}
	d.mSubs.Add(1)
	return c, func() {
		d.mu.Lock()
		if _, live := camp.subs[c]; live {
			delete(camp.subs, c)
			close(c)
		}
		d.mu.Unlock()
		d.mSubs.Add(-1)
	}, true
}

// Health snapshots the daemon for /v1/healthz.
func (d *Daemon) Health() Health {
	d.mu.Lock()
	defer d.mu.Unlock()
	return Health{
		Status:     "ok",
		QueueDepth: len(d.queue),
		Jobs:       len(d.jobs),
		Campaigns:  len(d.camps),
		Draining:   d.draining,
		UptimeS:    time.Since(d.start).Seconds(),
	}
}

// Drain stops intake and waits for every accepted job to reach a
// terminal state (in-flight runs finish; queued runs execute). It
// returns ctx.Err() if the deadline expires first — call Close then to
// abandon what is left.
func (d *Daemon) Drain(ctx context.Context) error {
	d.mu.Lock()
	d.draining = true
	d.mu.Unlock()
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	for {
		d.mu.Lock()
		pending := 0
		for _, j := range d.jobs {
			if !terminal(j.state) {
				pending++
			}
		}
		d.mu.Unlock()
		if pending == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-tick.C:
		}
	}
}

// Close hard-stops the daemon: in-flight runs are cancelled, workers
// and feeders are joined, the journal is closed. The executor is not
// closed — the caller owns it (and must Close it to flush the disk
// cache). Safe after Drain, and safe to call twice.
func (d *Daemon) Close() error {
	d.cancel()
	d.workers.Wait()
	d.feeders.Wait()
	d.mu.Lock()
	d.draining = true
	journal := d.journal
	d.journal = nil
	d.mu.Unlock()
	if journal != nil {
		return journal.Close()
	}
	return nil
}
