package sim

import (
	"context"
	"fmt"
	"time"

	"dufp/internal/obs"
	"dufp/internal/obs/span"
	"dufp/internal/units"
)

// defaultCancelTicks is the cancellation-check interval for ungoverned
// runs: one default control period's worth of 1 ms ticks.
const defaultCancelTicks = 200

// Telemetry handles, pre-resolved on the process registry. Counts are
// accumulated locally during a run and flushed once at the end, keeping
// the physics loop free of shared-cache-line traffic; the instrumentation
// never feeds back into the simulation, so instrumented results are
// bit-identical to uninstrumented ones.
var (
	simRunsTotal = obs.Default().Counter(
		"sim_runs_total", "simulator runs completed").With()
	simTicksTotal = obs.Default().Counter(
		"sim_ticks_total", "physics ticks advanced across all runs").With()
	simClampTicksTotal = obs.Default().Counter(
		"sim_rapl_clamp_ticks_total", "socket-ticks on which the RAPL limiter throttled the core frequency").With()
	simWallSecondsTotal = obs.Default().Counter(
		"sim_wall_seconds_total", "wall-clock seconds spent inside simulator runs").With()
	simFastTicksTotal = obs.Default().Counter(
		"sim_fast_ticks_total", "physics ticks advanced by the event-horizon macro-step").With()
	simFastWindowsTotal = obs.Default().Counter(
		"sim_fast_windows_total", "event-horizon macro-step windows executed").With()
)

// The former sim_ticks_per_second gauge is gone: a last-writer-wins gauge
// is meaningless with concurrent executor workers. Derive the rate from
// sim_ticks_total / sim_wall_seconds_total instead (see README).

// Governor is a per-socket runtime controller invoked every control
// period. DUF and DUFP implement it (via the control package); a nil
// governor leaves the socket in its default configuration.
type Governor interface {
	// Tick runs one decision round at simulation time now.
	Tick(now time.Duration) error
}

// TracePoint is one time-series sample for Fig 5-style plots.
type TracePoint struct {
	Time       time.Duration
	CoreFreq   units.Frequency
	UncoreFreq units.Frequency
	PkgPower   units.Power
	DramPower  units.Power
	CapPL1     units.Power
	CapPL2     units.Power
	Bandwidth  units.Bandwidth
	FlopRate   units.FlopRate
}

// RunOpts parameterises one run.
type RunOpts struct {
	// Ctx, when non-nil, cancels the run: it is checked between decision
	// rounds (or every defaultCancelTicks physics ticks when no governors
	// are attached) and the run aborts with ctx.Err() once done.
	Ctx context.Context
	// ControlPeriod is the governor invocation interval (the paper's
	// 200 ms measurement interval). Ignored when Governors is empty.
	ControlPeriod time.Duration
	// Governors holds one controller per socket (nil entries allowed).
	Governors []Governor
	// Trace, when non-nil, receives a TracePoint per socket every
	// TraceEvery ticks.
	Trace func(socket int, p TracePoint)
	// TraceEvery subsamples the trace; it defaults to every 10 ticks.
	TraceEvery int
	// GovernorOverhead is the monitoring cost of one decision round: after
	// every governor invocation the application stalls for this long
	// (counter reads, MSR writes and cache pollution on real hardware).
	// Zero models free monitoring; §IV-D's interval trade-off appears once
	// it is positive.
	GovernorOverhead time.Duration
	// ExactLoop forces the reference per-tick physics loop, never entering
	// the event-horizon macro-step even when a window would qualify. Fault
	// plans set it (their injection sites are audited per run, not per
	// window) and tests use it as the reference side of bit-identity
	// checks; results are bit-identical either way.
	ExactLoop bool
	// Spans, when non-nil, records one entry per governor control round
	// on the run's span flight recorder: the round's wall-clock cost and
	// socket 0's operating point after the decision (phase, operational
	// intensity, cap, uncore frequency). Nil keeps the loop free of any
	// clock reads — the per-tick physics path never touches it either
	// way, preserving the 0 allocs/tick invariant.
	Spans *span.Trace
}

// Result summarises one completed run.
type Result struct {
	// Duration is the application's execution time: the latest socket
	// finish.
	Duration time.Duration
	// SocketDurations holds each socket's own finish time.
	SocketDurations []time.Duration
	// PkgEnergy and DramEnergy are node totals across sockets.
	PkgEnergy  units.Energy
	DramEnergy units.Energy
	// AvgPkgPower and AvgDramPower are node totals divided by Duration.
	AvgPkgPower  units.Power
	AvgDramPower units.Power
	// AvgCoreFreq and AvgUncoreFreq are busy-time-weighted averages over
	// all sockets.
	AvgCoreFreq   units.Frequency
	AvgUncoreFreq units.Frequency
}

// TotalEnergy returns processor + DRAM energy, the paper's Fig 3c metric.
func (r Result) TotalEnergy() units.Energy { return r.PkgEnergy + r.DramEnergy }

// stepPhysics advances all sockets by one tick. The sockets execute an
// SPMD application whose barriers couple them: every package progresses at
// the same global rate and observes the same global counter rates, so a
// throttled socket drags the whole application — exactly the situation one
// DUFP instance per socket contends with on real hardware.
//
// Barriers sit at iteration granularity (hundreds of milliseconds), far
// coarser than the millisecond actuation of the RAPL limiter, so the
// sub-barrier duty-cycle dips of statistically identical sockets average
// out between barriers; the global rate is therefore the mean of the
// sockets' potentials rather than their instantaneous minimum.
func (m *Machine) stepPhysics(dt float64) {
	for _, s := range m.sockets {
		s.prepare()
	}
	left := dt
	// Monitoring stall: the application makes no progress while the
	// controllers read counters and write MSRs, but the package keeps
	// drawing power at its current operating point.
	if m.stall > 0 && !m.done() {
		stall := m.stall
		if stall > left {
			stall = left
		}
		for _, s := range m.sockets {
			s.advance(stall, 0)
		}
		m.stall -= stall
		left -= stall
	}
	for left > 1e-12 && !m.done() {
		var sum float64
		for _, s := range m.sockets {
			sum += s.potential().Progress
		}
		progress := sum / float64(len(m.sockets))
		step := left
		if progress > 0 {
			if tEnd := m.sockets[0].remaining / progress; tEnd < step {
				step = tEnd
			}
		}
		for _, s := range m.sockets {
			s.advance(step, progress)
		}
		left -= step
		if m.done() {
			finished := m.now + time.Duration((dt-left)*float64(time.Second))
			for _, s := range m.sockets {
				s.finished = finished
			}
		}
	}
	for _, s := range m.sockets {
		s.settle(dt, left)
	}
}

// Run executes the loaded workload to completion.
func (m *Machine) Run(opts RunOpts) (Result, error) {
	if len(opts.Governors) != 0 && len(opts.Governors) != len(m.sockets) {
		return Result{}, fmt.Errorf("sim: got %d governors for %d sockets", len(opts.Governors), len(m.sockets))
	}
	for _, s := range m.sockets {
		if len(s.phases) == 0 && !s.done {
			return Result{}, fmt.Errorf("sim: no workload loaded")
		}
	}
	ctrlTicks := 0
	if len(opts.Governors) != 0 {
		if opts.ControlPeriod <= 0 {
			return Result{}, fmt.Errorf("sim: governors need a positive control period")
		}
		ctrlTicks = int(opts.ControlPeriod / m.cfg.Tick)
		if ctrlTicks < 1 {
			ctrlTicks = 1
		}
	}
	traceEvery := opts.TraceEvery
	if traceEvery <= 0 {
		traceEvery = 10
	}

	cancelTicks := ctrlTicks
	if cancelTicks <= 0 {
		cancelTicks = defaultCancelTicks
	}

	dt := m.dt
	maxTicks := int(m.cfg.MaxDuration / m.cfg.Tick)
	m.clampTicks = 0
	m.fastTicksRun, m.fastWindowsRun = 0, 0
	// ExactLoop is the explicit opt-out of the macro-step (fault plans,
	// reference runs).
	fastOK := !opts.ExactLoop

	wallStart := time.Now()
	tick := 0
	// established is set while the last window ran out at a loop-level
	// bound with no tick-level event: no input of establish has moved
	// since, so the next window reuses its constants. A window that ends
	// on an event clears it — a zero-tick window always does, so every
	// exact tick runs with it clear — and so does every pass through the
	// governor block, whether or not a governor ran. The cancellation
	// check and the trace hook leave it set: the first reads only the
	// context, the second only observes.
	established := false
	for ; !m.done(); tick++ {
		if tick >= maxTicks {
			return Result{}, fmt.Errorf("sim: run exceeded MaxDuration %v", m.cfg.MaxDuration)
		}
		if opts.Ctx != nil && tick%cancelTicks == 0 {
			if err := opts.Ctx.Err(); err != nil {
				return Result{}, err
			}
		}
		stepped := false
		if established || fastOK && m.stall == 0 && m.establish() {
			// Event horizon: ticks until the next loop-level event. The
			// window may end ON a governor or trace tick — both fire after
			// that tick's physics, from state the macro-step fully
			// materialises — but must stop short of the next cancellation
			// check, which runs before its tick.
			w := maxTicks - tick
			if opts.Ctx != nil {
				w = min(w, cancelTicks-tick%cancelTicks)
			}
			if ctrlTicks > 0 {
				w = min(w, ctrlTicks-tick%ctrlTicks)
			}
			if opts.Trace != nil {
				d := 1
				if r := tick % traceEvery; r != 0 {
					d = traceEvery - r + 1
				}
				w = min(w, d)
			}
			n, event := m.window(w)
			if n > 0 {
				tick += n - 1
				stepped = true
			}
			established = !event
		}
		if !stepped {
			m.stepPhysics(dt)
			m.now += m.cfg.Tick
		}

		if ctrlTicks > 0 && (tick+1)%ctrlTicks == 0 {
			established = false
			var roundStart time.Duration
			if opts.Spans != nil {
				roundStart = opts.Spans.Now()
			}
			ran := false
			for i, g := range opts.Governors {
				if g == nil || m.sockets[i].done {
					continue
				}
				if err := g.Tick(m.now); err != nil {
					return Result{}, fmt.Errorf("sim: governor for socket %d at %v: %w", i, m.now, err)
				}
				ran = true
			}
			if ran && opts.GovernorOverhead > 0 {
				m.stall += opts.GovernorOverhead.Seconds()
			}
			if ran && opts.Spans != nil {
				s0 := m.sockets[0]
				lim := s0.limiter.Limits()
				oi := 0.0
				if s0.lastBW > 0 {
					oi = float64(s0.lastFlopRate) / float64(s0.lastBW)
				}
				opts.Spans.AddRound(span.Round{
					Start:    roundStart,
					End:      opts.Spans.Now(),
					Sim:      m.now,
					Phase:    s0.idx,
					OI:       oi,
					CapW:     lim.PL1.Limit.Watts(),
					UncoreHz: float64(s0.uncoreFreq),
				})
			}
		}
		if opts.Trace != nil && tick%traceEvery == 0 {
			for i, s := range m.sockets {
				lim := s.limiter.Limits()
				opts.Trace(i, TracePoint{
					Time:       m.now,
					CoreFreq:   s.coreFreq,
					UncoreFreq: s.uncoreFreq,
					PkgPower:   s.lastPower,
					DramPower:  s.lastDram,
					CapPL1:     lim.PL1.Limit,
					CapPL2:     lim.PL2.Limit,
					Bandwidth:  s.lastBW,
					FlopRate:   s.lastFlopRate,
				})
			}
		}
	}

	simRunsTotal.Inc()
	simTicksTotal.Add(float64(tick))
	simClampTicksTotal.Add(float64(m.clampTicks))
	simFastTicksTotal.Add(float64(m.fastTicksRun))
	simFastWindowsTotal.Add(float64(m.fastWindowsRun))
	if wall := time.Since(wallStart).Seconds(); wall > 0 {
		simWallSecondsTotal.Add(wall)
	}

	res := Result{SocketDurations: make([]time.Duration, len(m.sockets))}
	var hzSecs, uncHzSecs, busy float64
	for i, s := range m.sockets {
		res.SocketDurations[i] = s.finished
		if s.finished > res.Duration {
			res.Duration = s.finished
		}
		res.PkgEnergy += s.pkgEnergy
		res.DramEnergy += s.dramEnergy
		hzSecs += s.coreHzSecs
		uncHzSecs += s.uncHzSecs
		busy += s.busySecs
	}
	res.AvgPkgPower = res.PkgEnergy.DividedBy(res.Duration)
	res.AvgDramPower = res.DramEnergy.DividedBy(res.Duration)
	if busy > 0 {
		res.AvgCoreFreq = units.Frequency(hzSecs / busy)
		res.AvgUncoreFreq = units.Frequency(uncHzSecs / busy)
	}
	return res, nil
}
