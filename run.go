package dufp

import (
	"context"
	"slices"

	"dufp/internal/control"
	"dufp/internal/exec"
	"dufp/internal/fault"
	"dufp/internal/obs/span"
	"dufp/internal/obs/timeline"
	"dufp/internal/trace"
)

// Fault-injection and robustness facade.
type (
	// FaultPlan selects which sensor/actuator faults a session injects
	// (see internal/fault). The zero value injects nothing and leaves
	// runs bit-identical to a fault-free session. Plans are part of run
	// identity: changing the plan changes the executor cache key.
	FaultPlan = fault.Plan
	// FaultStats counts the faults actually injected during one run.
	FaultStats = fault.Stats
	// GuardConfig configures the controllers' sample guard: bounded
	// retry with backoff, outlier rejection with last-good-value
	// fallback, and degraded mode on persistent sensor failure.
	GuardConfig = control.GuardConfig
	// GuardStats counts a run's sample-guard outcomes, summed across
	// sockets.
	GuardStats = control.GuardStats
)

// DefaultGuardConfig returns the hardened-controller guard defaults.
func DefaultGuardConfig() GuardConfig { return control.DefaultGuard() }

// TraceRecorder is a run's full per-socket time-series recording, read
// with Points or All.
//
// A recorder holds every sample of the run in memory. New consumers
// should prefer streaming the samples into a TraceSink (WithTraceSink):
// a TraceReservoir for bounded plotting data, a windowed or whole-run
// summary, or a CSV/JSONL writer.
type TraceRecorder = trace.Recorder

// Streaming trace facade (see internal/trace). A sink observes each
// (socket, sample) pair once, as the simulator produces it, so memory
// per run is O(1) in run duration no matter how long MaxDuration is.
type (
	// TraceSink consumes trace samples during the run (WithTraceSink).
	// Sinks are pure observers: attaching one never changes the measured
	// run — sink-observed runs stay bit-identical to unobserved ones.
	TraceSink = trace.Sink
	// TraceSummary is the exact O(1) aggregate of a run's trace:
	// per-socket sample counts and streaming averages. Every traced or
	// sink-observed run carries one in RunResult.TraceSummary.
	TraceSummary = trace.Summary
	// TraceReservoir retains a bounded, deterministically downsampled
	// view of the trace plus its exact summary; safe for concurrent
	// reads while the run is producing.
	TraceReservoir = trace.Reservoir
)

// NewTraceReservoir returns a bounded trace sink keeping at most
// pointsPerSocket samples per socket (non-positive selects the default,
// trace.DefaultReservoirPoints). While a run emits no more samples than
// the capacity the view is lossless; longer runs degrade to an evenly
// spaced grid, never to unbounded memory.
func NewTraceReservoir(pointsPerSocket int) *TraceReservoir {
	return trace.NewReservoir(pointsPerSocket)
}

// Span flight-recorder facade (see internal/obs/span).
type (
	// SpanTrace is one run's span tree: wall-clock stages from queue
	// wait to result serialization, one entry per simulator control
	// round, and guard-event annotations. Export it with
	// WriteTraceEvents (Chrome trace-event JSON, loads in Perfetto).
	SpanTrace = span.Trace
	// SpanSummary is the compact per-stage self-time decomposition of a
	// SpanTrace; it is the span artifact that crosses the wire inside
	// RunResult.
	SpanSummary = span.Summary
	// SpanRecorder retains finished span traces in a bounded ring and
	// maintains the slow-run log.
	SpanRecorder = span.Recorder
)

// RunSpec names one run: an application, a governor descriptor, and the
// run index that selects the deterministic seeds.
type RunSpec struct {
	App      App
	Governor Governor
	// Idx selects the run's seeds; repeated runs with the same Idx
	// reproduce the run exactly.
	Idx int
}

// runOptions collects the per-run settings of Session.Run.
type runOptions struct {
	trace, events, timeline, faultStats, spans bool
	sink                                       TraceSink
	faults                                     *FaultPlan
}

// RunOption adjusts one Session.Run call.
type RunOption func(*runOptions)

// WithTrace attaches a full time-series recording to the run. Traced
// runs flow through the executor's worker pool but never read the memo
// cache: the recording is a side effect that must be produced fresh.
// Memory grows with run duration — prefer WithTraceSink for long runs.
func WithTrace() RunOption { return func(o *runOptions) { o.trace = true } }

// WithTraceSink streams every trace sample into s as the simulator
// produces it — the O(1)-memory alternative to WithTrace. The sink is
// called from the run's single decision loop with (socket, sample) in
// emission order; combine consumers with trace.Tee. Sink-observed runs
// execute fresh (the stream is a side effect) but are bit-identical to
// unobserved ones, so their results still populate the caches.
func WithTraceSink(s TraceSink) RunOption { return func(o *runOptions) { o.sink = s } }

// WithEvents returns the decision log of socket 0's controller instance
// (empty for controllers that do not record one). Like traced runs,
// event-bearing runs bypass the memo cache.
func WithEvents() RunOption { return func(o *runOptions) { o.events = true } }

// WithTimeline returns the run's audit trail — controller decisions
// joined with the nearest trace samples — and implies WithTrace and
// WithEvents.
func WithTimeline() RunOption {
	return func(o *runOptions) { o.timeline, o.trace, o.events = true, true, true }
}

// WithSpans attaches a span flight recorder to the run and returns its
// trace and per-stage summary. If ctx already carries a SpanTrace (the
// daemon's dispatch path) that trace is reused and left unfinished for
// its owner; otherwise a fresh trace keyed by the run's wire ID is
// created and finished. Span-bearing runs bypass the memo cache like
// other sideband artifacts: the stage timings must be produced fresh.
func WithSpans() RunOption { return func(o *runOptions) { o.spans = true } }

// WithFaultStats returns the injected-fault and sample-guard counters
// of the run. Stat-bearing runs bypass the memo cache.
func WithFaultStats() RunOption { return func(o *runOptions) { o.faultStats = true } }

// WithFaults overrides the session's fault plan for this run only. The
// plan participates in run identity exactly as a session-level plan
// does.
func WithFaults(p FaultPlan) RunOption {
	return func(o *runOptions) { o.faults = &p }
}

// RunResult bundles one run's measurements with the artifacts requested
// through RunOptions; unrequested fields are zero.
type RunResult struct {
	// Run is the paper-protocol measurement of the run.
	Run Run
	// Trace is the per-socket time series (WithTrace / WithTimeline).
	Trace *TraceRecorder
	// TraceSummary is the exact streaming aggregate of the trace,
	// present whenever the run was traced or sink-observed (WithTrace /
	// WithTraceSink / WithTimeline).
	TraceSummary *TraceSummary
	// Events is socket 0's decision log (WithEvents / WithTimeline).
	Events []ControlEvent
	// Timeline is the joined audit trail (WithTimeline).
	Timeline Timeline
	// FaultStats and GuardStats are the robustness counters
	// (WithFaultStats).
	FaultStats FaultStats
	// GuardStats sums the sample-guard outcomes across sockets.
	GuardStats GuardStats
	// SpanTrace is the run's span flight recorder (WithSpans).
	SpanTrace *SpanTrace
	// Spans is the compact per-stage duration summary of SpanTrace
	// (WithSpans); it is the only span artifact carried by wire v1.
	Spans *SpanSummary
}

// Run executes one run of spec.App under spec.Governor through the run
// executor: identical requests coalesce while in flight, and runs
// without sideband artifacts memoise once complete — a memoised result
// is bit-identical to a fresh one. ctx cancels the run between decision
// rounds.
func (s Session) Run(ctx context.Context, spec RunSpec, opts ...RunOption) (RunResult, error) {
	var o runOptions
	for _, opt := range opts {
		opt(&o)
	}
	if o.faults != nil {
		s.Faults = *o.faults
	}
	sideband := o.trace || o.events || o.faultStats || o.spans || o.sink != nil
	key := s.specKey(spec)
	if !sideband {
		r, err := s.executor().Submit(ctx, key)
		if err != nil {
			return RunResult{}, wrapErr("run", err)
		}
		return RunResult{Run: r}, nil
	}
	// This run owns its payload, so the sideband fields are its own.
	p := key.Payload.(*runPayload)
	p.traced, p.keep, p.sink = o.trace, true, o.sink
	var tr *SpanTrace
	ownTrace := false
	if o.spans {
		if tr = span.FromContext(ctx); tr == nil {
			tr = span.New(exec.RunID(key.ID()))
			ctx = span.NewContext(ctx, tr)
			ownTrace = true
		}
	}
	// Sideband runs execute fresh — artifacts and sink streams cannot be
	// replayed from a cache — but, because observers never change the
	// measured run, the Run they return is written through to the memo
	// and disk tiers for later artifact-free submissions to reuse.
	r, err := s.executor().SubmitFresh(ctx, key)
	if o.spans && ownTrace {
		tr.Finish()
	}
	if err != nil {
		return RunResult{}, wrapErr("run", err)
	}
	res := RunResult{Run: r, TraceSummary: p.summary}
	if o.trace {
		res.Trace = p.rec
	}
	if o.events {
		for _, inst := range p.insts {
			if inst == nil {
				continue
			}
			if evs := EventsOf(inst); evs != nil {
				res.Events = evs
				break
			}
		}
	}
	if o.timeline {
		res.Timeline = timeline.Build(res.Events, slices.Collect(p.rec.Points(0)))
	}
	if o.faultStats {
		res.FaultStats = p.faults
		for _, inst := range p.insts {
			res.GuardStats = res.GuardStats.Add(guardStatsOf(inst))
		}
	}
	if o.spans {
		res.SpanTrace = tr
		sum := tr.Summary()
		res.Spans = &sum
	}
	return res, nil
}

// guardStatser is implemented by hardened controller instances.
type guardStatser interface {
	GuardStats() control.GuardStats
}

// guardStatsOf extracts a controller instance's guard counters,
// descending into chains.
func guardStatsOf(inst control.Instance) control.GuardStats {
	switch g := inst.(type) {
	case nil:
		return control.GuardStats{}
	case guardStatser:
		return g.GuardStats()
	case control.Chain:
		var total control.GuardStats
		for _, member := range g {
			total = total.Add(guardStatsOf(member))
		}
		return total
	}
	return control.GuardStats{}
}
