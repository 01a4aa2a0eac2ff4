package dufp

import (
	"context"
	"fmt"
	"time"

	"dufp/internal/control"
	"dufp/internal/fault"
	"dufp/internal/metrics"
	"dufp/internal/msr"
	"dufp/internal/obs/span"
	"dufp/internal/papi"
	"dufp/internal/powercap"
	"dufp/internal/rapl"
	"dufp/internal/sim"
	"dufp/internal/trace"
	"dufp/internal/uncore"
	"dufp/internal/units"
	"dufp/internal/workload"
)

// Session is a configured experiment runner: it owns the simulated node's
// configuration, the measurement cadence and the stochastic seeds, and can
// execute applications under governors repeatedly per the paper's
// protocol. Runs are scheduled on a shared executor (see internal/exec)
// that bounds concurrency, coalesces identical in-flight runs and
// memoises completed ones, so repeated requests for the same
// (app, governor, session, run index) compute once.
type Session struct {
	// Sim is the machine configuration.
	Sim sim.Config
	// ControlPeriod is the controllers' measurement interval (paper: 200 ms).
	ControlPeriod time.Duration
	// NoiseSD is the relative measurement noise of the PAPI layer.
	NoiseSD float64
	// MonitorOverhead is the per-decision-round stall (§IV-D); zero keeps
	// monitoring free, the paper-calibrated default.
	MonitorOverhead time.Duration
	// Jitter is the run-to-run workload variability.
	Jitter workload.Jitter
	// Seed is the base seed; run i of a config derives its own seeds
	// from it, so sequences are reproducible and runs are independent.
	Seed int64
	// Faults is the session's fault-injection plan (see internal/fault).
	// The zero plan injects nothing and keeps runs bit-identical to a
	// fault-free session; a non-zero plan is part of run identity, so
	// faulted and clean runs never share cache entries. Set it with
	// WithFaultPlan, or on a copy of the session for a single run.
	Faults FaultPlan
	// ExactPhysics forces the simulator's reference per-tick loop,
	// disabling the event-horizon macro-step (DESIGN.md §11). Results are
	// bit-identical either way; set it when auditing the fast path or
	// profiling the per-tick physics. Fault-plan sessions always run the
	// exact loop. Part of run identity.
	ExactPhysics bool

	// exec schedules this session's runs; nil means SharedExecutor. Set
	// it with WithExecutor or OnExecutor.
	exec *Executor
}

// NewSession returns a session with the paper's configuration — yeti-2,
// 1 ms physics, 200 ms control period, sub-percent measurement noise —
// adjusted by the given options.
func NewSession(opts ...SessionOption) Session {
	s := Session{
		Sim:           sim.DefaultConfig(),
		ControlPeriod: 200 * time.Millisecond,
		NoiseSD:       0.006,
		Jitter:        workload.DefaultJitter(),
		Seed:          42,
	}
	for _, opt := range opts {
		opt(&s)
	}
	return s
}

// GovernorFunc builds one controller instance for a socket. A nil instance
// leaves the socket in its default configuration.
type GovernorFunc func(act control.Actuators) (control.Instance, error)

// attach builds per-socket actuators and controller instances on a
// machine. dev is the MSR device the actuators address — the machine's
// own register file, or the fault layer's wrapper around it — and inj,
// when non-nil, additionally wraps each socket's counter source. Socket
// i's monitor draws its noise from generator i+1 of gens.
func (s Session) attach(m *sim.Machine, mk GovernorFunc, runSeed int64, gens *generators, dev msr.Device, inj *fault.Injector) ([]sim.Governor, []control.Instance, error) {
	spec := m.Config().Topo.Spec
	govs := make([]sim.Governor, m.Sockets())
	insts := make([]control.Instance, m.Sockets())
	for i := 0; i < m.Sockets(); i++ {
		sock := m.Socket(i)
		client, err := rapl.NewClient(dev, sock.CPU0())
		if err != nil {
			return nil, nil, err
		}
		zone, err := powercap.OpenPackage(dev, sock.CPU0(), i, spec)
		if err != nil {
			return nil, nil, err
		}
		rng := gens.seeded(i+1, runSeed*7919+int64(i)*104729+13)
		var src papi.Source = sock
		if inj != nil {
			src = inj.Source(sock)
		}
		mon, err := papi.NewMonitor(src, client.NewPkgEnergyMeter(), client.NewDramEnergyMeter(), rng, s.NoiseSD)
		if err != nil {
			return nil, nil, err
		}
		if mk == nil {
			continue // the baseline: no controller
		}
		inst, err := mk(control.Actuators{
			Spec:    spec,
			Monitor: mon,
			Zone:    zone,
			Uncore:  uncore.NewControl(dev, sock.CPU0(), spec),
			Dev:     dev,
			CPU:     sock.CPU0(),
		})
		if err != nil {
			return nil, nil, err
		}
		if inst != nil {
			insts[i] = inst
			govs[i] = inst
		}
	}
	return govs, insts, nil
}

// runSeed derives the deterministic seed of run index idx.
func (s Session) runSeed(app string, idx int) int64 {
	h := int64(1469598103934665603)
	for _, c := range app {
		h ^= int64(c)
		h *= 1099511628211
	}
	return s.Seed + h%100003 + int64(idx)*6700417
}

// runRecord is what a fresh run keeps beside its measurement; execute
// fills it. Every record streams the samples into sink, when set, and
// keeps their exact summary. A full record also keeps the lossless
// series, socket 0's decision log and the fault and guard counters.
type runRecord struct {
	// sink receives every sample as the run produces it (WithTraceSink).
	sink trace.Sink
	// full asks for the whole record (WithRecord).
	full bool

	samples *trace.Reservoir
	summary *trace.Summary
	events  []control.Event
	faults  fault.Stats
	guard   control.GuardStats
}

// execute is the uncached run path behind the executor: build a machine,
// load the unrolled workload, attach the governor and run to completion.
// ctx is checked between decision rounds. A span trace on ctx receives
// the setup and sim stages, one entry per control round, and the
// controllers' guard events; spans left open on an error path are
// closed by the trace's Finish.
//
// A non-nil rec turns on the trace cadence and is filled as runRecord
// says; its sink sees the same sample stream as its series.
func (s Session) execute(ctx context.Context, app App, mk GovernorFunc, idx int, rec *runRecord) (Run, error) {
	tr := span.FromContext(ctx)
	setup := tr.Start(span.StageSetup)
	if err := app.Validate(); err != nil {
		return Run{}, err
	}
	seed := s.runSeed(app.Name, idx)

	cfg := s.Sim
	cfg.Seed = seed
	m, err := machineFor(ctx, cfg)
	if err != nil {
		return Run{}, err
	}
	gens := generatorsFor(ctx)
	phases := app.Unroll(gens.seeded(0, seed*31+7), s.Jitter)
	if err := m.Load(phases); err != nil {
		return Run{}, err
	}

	// The fault plan, when enabled, wraps the sensor/actuator seams.
	// The injector is private to this run and only touched from the
	// simulation's single decision loop, so faulted runs stay
	// deterministic and data-race-free under the parallel executor.
	var dev msr.Device = m.MSR()
	var inj *fault.Injector
	if s.Faults.Enabled() {
		if err := s.Faults.Validate(); err != nil {
			return Run{}, fmt.Errorf("%w: %v", ErrBadConfig, err)
		}
		inj = fault.NewInjector(s.Faults, seed, m.Now)
		dev = inj.Device(m.MSR())
	}

	govs, insts, err := s.attach(m, mk, seed, gens, dev, inj)
	if err != nil {
		return Run{}, err
	}
	if tr == nil && (rec == nil || !rec.full) {
		// Only a span trace (attachControlEvents) and a full record
		// (socket0Events) read the decision logs.
		for _, inst := range insts {
			dropLog(inst)
		}
	}
	var govName string
	for _, inst := range insts {
		if inst == nil {
			continue
		}
		if err := inst.Start(); err != nil {
			return Run{}, err
		}
		govName = inst.Name()
	}
	if govName == "" {
		govName = control.NoOp{}.Name()
	}

	setup.End()

	opts := sim.RunOpts{
		Ctx:              ctx,
		ControlPeriod:    s.ControlPeriod,
		Governors:        govs,
		GovernorOverhead: s.MonitorOverhead,
		ExactLoop:        s.ExactPhysics || s.Faults.Enabled(),
		Spans:            tr,
	}
	if allNil(govs) {
		opts.Governors = nil
	}
	var sum *trace.Summarizer
	if rec != nil {
		opts.TraceEvery = 10
		// Every record streams the exact O(1) summary, so the result
		// carries headline trace aggregates without the series.
		sum = trace.NewSummarizer()
		sinks := []trace.Sink{sum}
		if rec.full {
			// Sized to the most samples the run can emit before
			// MaxDuration stops it, the reservoir never decimates; its
			// blocks are allocated as samples arrive.
			rec.samples = trace.NewReservoir(int(cfg.MaxDuration/cfg.Tick)/opts.TraceEvery + 1)
			sinks = append(sinks, rec.samples)
		}
		opts.Trace = trace.Hook(trace.Tee(append(sinks, rec.sink)...))
	}
	simSpan := tr.Start(span.StageSim)
	simWallStart := tr.Now()
	res, err := m.Run(opts)
	simSpan.End()
	if err != nil {
		return Run{}, fmt.Errorf("dufp: running %s under %s: %w", app.Name, govName, err)
	}
	if tr != nil {
		attachControlEvents(tr, insts, res.Duration, simWallStart, tr.Now()-simWallStart)
	}

	if rec != nil {
		sm := sum.Summary()
		rec.summary = &sm
		if rec.full {
			rec.events = socket0Events(insts)
			for _, inst := range insts {
				rec.guard = rec.guard.Add(guardStatsOf(inst))
			}
			if inj != nil {
				rec.faults = inj.Stats()
			}
		}
	}
	return Run{
		App:          app.Name,
		Governor:     govName,
		Slowdown:     slowdownOf(insts),
		Time:         res.Duration,
		PkgEnergy:    res.PkgEnergy,
		DramEnergy:   res.DramEnergy,
		AvgPkgPower:  res.AvgPkgPower,
		AvgDramPower: res.AvgDramPower,
		AvgCoreFreq:  res.AvgCoreFreq,
		AvgUncore:    res.AvgUncoreFreq,
	}, nil
}

// SummarizeCtx performs n runs through the executor — concurrently, up to
// its worker bound — and aggregates them with the paper's protocol (drop
// fastest and slowest, average the rest). Runs already memoised are
// served from cache; ctx cancels the remainder between decision rounds.
func (s Session) SummarizeCtx(ctx context.Context, app App, gov Governor, n int) (Summary, error) {
	o := s.SummarizeAll(ctx, []SummaryRequest{{App: app, Governor: gov}}, n)[0]
	return o.Summary, o.Err
}

// SummaryRequest names one (application, governor) configuration of a
// batch summary.
type SummaryRequest struct {
	App      App
	Governor Governor
}

// SummaryOutcome is one resolved configuration of a SummarizeAll batch:
// the request it answers plus its aggregated summary or first error.
type SummaryOutcome struct {
	Req     SummaryRequest
	Summary Summary
	Err     error
}

// SummarizeAll summarises every requested configuration — n runs each,
// aggregated with the paper's protocol — as one executor batch. All
// len(reqs)×n runs are interleaved across the executor's worker pool, so
// a slow configuration never serialises the campaign behind it the way a
// SummarizeCtx-per-goroutine fan-out with fewer goroutines than cells
// would. Outcomes are returned in request order; a cancelled context
// resolves the remaining outcomes with ctx.Err() rather than dropping
// them.
func (s Session) SummarizeAll(ctx context.Context, reqs []SummaryRequest, n int) []SummaryOutcome {
	out := make([]SummaryOutcome, len(reqs))
	for i, req := range reqs {
		out[i].Req = req
	}
	if len(reqs) == 0 {
		return out
	}
	if n < 1 {
		err := fmt.Errorf("dufp: need at least one run, got %d: %w", n, ErrBadConfig)
		for i := range out {
			out[i].Err = err
		}
		return out
	}
	// Address each configuration once: one session fingerprint for the
	// batch, one render per distinct application, one key (fingerprints
	// and payload) per request, copied across the request's run indices.
	fp := s.fingerprint()
	apps := appRenders{}
	keys := make([]RunKey, 0, len(reqs)*n)
	for _, req := range reqs {
		key := s.runKey(fp, apps.of(req.App), req.App, req.Governor, 0)
		for i := 0; i < n; i++ {
			key.Idx = i
			keys = append(keys, key)
		}
	}
	outs := s.executor().SubmitAll(ctx, keys)
	runs := make([]Run, len(keys))
	for r := range out {
		for i := r * n; i < (r+1)*n && out[r].Err == nil; i++ {
			runs[i], out[r].Err = outs[i].Run, outs[i].Err
		}
		if out[r].Err == nil {
			out[r].Summary, out[r].Err = metrics.Summarize(runs[r*n : (r+1)*n])
		}
	}
	return out
}

func allNil(govs []sim.Governor) bool {
	for _, g := range govs {
		if g != nil {
			return false
		}
	}
	return true
}

// socket0Events returns the decision log of the first controller that
// records one: socket 0's, since every socket runs the same governor.
func socket0Events(insts []control.Instance) []ControlEvent {
	for _, inst := range insts {
		if evs := EventsOf(inst); evs != nil {
			return evs
		}
	}
	return nil
}

// slowdownOf extracts the tolerated slowdown from the first DUF/DUFP
// instance, if any.
func slowdownOf(insts []control.Instance) float64 {
	for _, in := range insts {
		if s, ok := slowdownOfInstance(in); ok {
			return s
		}
	}
	return 0
}

func slowdownOfInstance(in control.Instance) (float64, bool) {
	switch g := in.(type) {
	case *control.DUF:
		return g.Config().Slowdown, true
	case *control.DUFP:
		return g.Config().Slowdown, true
	case *control.DNPC:
		return g.Config().Slowdown, true
	case *control.DUFPF:
		return g.Config().Slowdown, true
	case control.Chain:
		for _, member := range g {
			if s, ok := slowdownOfInstance(member); ok {
				return s, true
			}
		}
	}
	return 0, false
}

// DefaultPL returns the node's factory long- and short-term power limits.
func (s Session) DefaultPL() (pl1, pl2 units.Power) {
	return s.Sim.Topo.Spec.DefaultPL1, s.Sim.Topo.Spec.DefaultPL2
}

// maxTraceEvents bounds the guard/phase annotations copied onto one
// span trace; pathological runs do not grow it without bound.
const maxTraceEvents = 512

// attachControlEvents copies the structurally interesting controller
// decisions — phase changes, interaction rules, §IV-D resets, sample-
// guard trips — onto the span trace as instant events. Controller
// events carry simulation timestamps; they are placed proportionally
// inside the sim stage's wall-clock window (an approximation: the
// macro-stepped loop does not spend wall time uniformly per simulated
// second, but ordering and phase attribution survive).
func attachControlEvents(tr *span.Trace, insts []control.Instance, simDur time.Duration, wallStart, wallLen time.Duration) {
	if simDur <= 0 {
		return
	}
	n := 0
	for _, inst := range insts {
		if inst == nil {
			continue
		}
		for _, ev := range EventsOf(inst) {
			switch ev.Kind {
			case control.EventPhaseChange, control.EventRule1, control.EventRule2,
				control.EventPowerOverCap, control.EventSampleRejected,
				control.EventSensorDegraded, control.EventSensorRecovered:
			default:
				continue // per-step cap/uncore moves are already on the round track
			}
			if n++; n > maxTraceEvents {
				tr.AddEvent("events-truncated", wallStart+wallLen, "")
				return
			}
			at := wallStart + time.Duration(float64(wallLen)*(float64(ev.Time)/float64(simDur)))
			tr.AddEvent(ev.Kind.String(), at,
				fmt.Sprintf("sim %.1fs cap=%.0fW uncore=%.1fGHz", ev.Time.Seconds(), ev.Cap.Watts(), ev.Uncore.GHz()))
		}
	}
}
