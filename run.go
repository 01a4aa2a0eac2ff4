package dufp

import (
	"context"

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

// Streaming trace facade (see internal/trace). A sink observes each
// (socket, sample) pair once, as the simulator produces it, so memory
// per run is O(1) in run duration no matter how long MaxDuration is.
type (
	// TraceSink consumes trace samples during the run (WithTraceSink).
	// Sinks are pure observers: attaching one never changes the measured
	// run — sink-observed runs stay bit-identical to unobserved ones.
	TraceSink = trace.Sink
	// TraceSummary is the exact O(1) aggregate of a run's trace:
	// per-socket sample counts and streaming averages. Every recorded or
	// sink-observed run carries one in RunResult.TraceSummary.
	TraceSummary = trace.Summary
	// TraceReservoir retains a bounded, deterministically downsampled
	// view of the trace plus its exact summary; safe for concurrent
	// reads while the run is producing. RunResult.Trace is one sized to
	// keep every sample.
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
	record bool
	sink   TraceSink
}

// RunOption adjusts one Session.Run call.
type RunOption func(*runOptions)

// WithTraceSink streams every trace sample into s as the simulator
// produces it, in O(1) memory however long the run. The sink is called
// from the run's single decision loop with (socket, sample) in emission
// order; combine consumers with trace.Tee. Besides the stream the
// result carries only the TraceSummary.
func WithTraceSink(s TraceSink) RunOption { return func(o *runOptions) { o.sink = s } }

// WithRecord returns the run's whole record: every field of RunResult.
// If ctx already carries a SpanTrace (the daemon's dispatch path) that
// trace is reused and left unfinished for its owner; otherwise a fresh
// trace keyed by the run's wire ID is created and finished.
//
// A recorded or sink-observed run executes fresh, because its sideband
// cannot be replayed from a cache. Observers never change the measured
// run, so the Run it returns is bit-identical to an unobserved one and
// is written through to the memo and disk tiers for later submissions
// to reuse.
func WithRecord() RunOption { return func(o *runOptions) { o.record = true } }

// RunResult bundles one run's measurements with its sideband: WithRecord
// fills every field, WithTraceSink only TraceSummary, and a plain run
// none but Run.
type RunResult struct {
	// Run is the paper-protocol measurement of the run.
	Run Run
	// Trace is the per-socket time series, lossless: its reservoir is
	// sized to every sample the run can emit.
	Trace *TraceReservoir
	// TraceSummary is the exact streaming aggregate of the trace.
	TraceSummary *TraceSummary
	// Events is socket 0's decision log (empty for controllers that do
	// not record one).
	Events []ControlEvent
	// FaultStats counts the faults the session's plan injected.
	FaultStats FaultStats
	// GuardStats sums the sample-guard outcomes across sockets.
	GuardStats GuardStats
	// SpanTrace is the run's span flight recorder.
	SpanTrace *SpanTrace
	// Spans is the compact per-stage duration summary of SpanTrace; it
	// is the only span artifact carried by wire v1.
	Spans *SpanSummary
}

// Run executes one run of spec.App under spec.Governor through the run
// executor: identical requests coalesce while in flight, and runs
// without sideband memoise once complete — a memoised result is
// bit-identical to a fresh one. ctx cancels the run between decision
// rounds.
func (s Session) Run(ctx context.Context, spec RunSpec, opts ...RunOption) (RunResult, error) {
	var o runOptions
	for _, opt := range opts {
		opt(&o)
	}
	key := s.specKey(spec)
	if !o.record && o.sink == nil {
		r, err := s.executor().Submit(ctx, key)
		if err != nil {
			return RunResult{}, wrapErr("run", err)
		}
		return RunResult{Run: r}, nil
	}
	// This run owns its payload, so the record is its own.
	rec := &runRecord{sink: o.sink, full: o.record}
	key.Payload.(*runPayload).rec = rec
	var tr *SpanTrace
	ownTrace := false
	if o.record {
		if tr = span.FromContext(ctx); tr == nil {
			tr = span.New(exec.RunID(key.ID()))
			ctx = span.NewContext(ctx, tr)
			ownTrace = true
		}
	}
	r, err := s.executor().SubmitFresh(ctx, key)
	if ownTrace {
		tr.Finish()
	}
	if err != nil {
		return RunResult{}, wrapErr("run", err)
	}
	res := RunResult{Run: r, TraceSummary: rec.summary}
	if o.record {
		sum := tr.Summary()
		res.Trace, res.Events = rec.samples, rec.events
		res.FaultStats, res.GuardStats = rec.faults, rec.guard
		res.SpanTrace, res.Spans = tr, &sum
	}
	return res, nil
}

// Timeline is the run's audit trail, a view over the record: Events
// joined with socket 0 of Trace, time-ordered. It is built on each call;
// a result without a Trace gives an empty view.
func (r RunResult) Timeline() Timeline {
	if r.Trace == nil {
		return Timeline{}
	}
	return timeline.Build(r.Events, r.Trace.Snapshot(0))
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
