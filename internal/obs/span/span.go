// Package span is the harness's span flight recorder: per-run trace
// trees that decompose one run's wall clock into named stages — queue
// wait, dispatch, cache lookup, worker-slot wait, simulation, result
// serialization — plus one entry per simulator control round annotated
// with the governor's operating point (phase, operational intensity,
// cap, uncore frequency).
//
// The recorder is built for near-zero disabled cost: a nil *Trace is a
// valid receiver for every method and does nothing, so instrumented
// seams pay one pointer test when tracing is off. Propagation is
// explicit, through context.Context (NewContext/FromContext), so a
// trace follows a run from the HTTP handler through the daemon queue,
// the executor shards, the disk cache and into the simulator loop
// without any global state.
//
// Finished traces are exported two ways: Chrome trace-event JSON
// loadable in Perfetto (export.go) and a compact per-stage Summary that
// crosses the wire inside RunResult. A Summary reports *self* time —
// each stage's duration minus its children's — so the stage durations
// of a tree sum exactly to the root's wall clock by construction. dufpd
// keeps each recent run's trace in its bounded store of run records
// (internal/api).
package span

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"
)

// Canonical stage names. The chain a governed daemon run traverses is
// root → queue → dispatch → (cache, wait, setup, sim, serialize); gaps
// between stages land in the root's self time.
const (
	// RootStage is the implicit whole-run span every trace starts with.
	RootStage = "run"
	// StageQueue is the daemon's bounded job queue: enqueue to dequeue.
	StageQueue = "queue"
	// StageDispatch covers a dispatch worker's session.Run call.
	StageDispatch = "dispatch"
	// StageCache is the executor's memo-LRU plus disk-cache lookup.
	StageCache = "cache"
	// StageCoalesce is a follower waiting on an in-flight leader.
	StageCoalesce = "coalesce"
	// StageWait is the executor's worker-slot acquisition.
	StageWait = "wait"
	// StageSetup is machine construction, workload unroll and governor
	// attachment.
	StageSetup = "setup"
	// StageSim is the simulator's physics/control loop.
	StageSim = "sim"
	// StageSerialize is the disk-cache write-behind of a fresh result.
	StageSerialize = "serialize"
)

// Span is one node of a trace tree: a named interval, as offsets from
// the trace epoch. Parent is the index of the enclosing span (-1 for
// the root). An End of -1 marks a span still open.
type Span struct {
	Name   string
	Parent int
	Start  time.Duration
	End    time.Duration
}

// Round is one simulator control round: the wall-clock interval of the
// governor invocations (offsets from the trace epoch), the simulation
// time at which the round fired, and socket 0's operating point after
// the decision.
type Round struct {
	// Start and End bound the governor invocations on the wall clock.
	Start, End time.Duration
	// Sim is the simulation timestamp of the round.
	Sim time.Duration
	// Phase is socket 0's workload phase index.
	Phase int
	// OI is the observed operational intensity (flops per byte of
	// memory traffic) at the round; 0 when no traffic was observed.
	OI float64
	// CapW is the programmed PL1 power cap after the round, in watts.
	CapW float64
	// UncoreHz is the delivered uncore frequency after the round.
	UncoreHz float64
}

// Event is one instant annotation — a guard trip, a phase change —
// placed at a wall-clock offset inside the trace.
type Event struct {
	At   time.Duration
	Name string
	Args string
}

// Trace is one run's span tree. All methods are safe for concurrent
// use and safe on a nil receiver (no-ops), which is how disabled
// tracing stays free: seams call through unconditionally.
type Trace struct {
	runID string
	epoch time.Time

	mu     sync.Mutex
	spans  []Span
	stack  []int32 // indices of open spans; new spans nest under the top
	rounds []Round
	events []Event
	done   bool
	total  time.Duration
}

// New starts a trace for one run: the root span opens immediately and
// runs until Finish. Round storage for a paper-protocol run (25
// simulated seconds at a 200 ms control period) is preallocated here so
// AddRound on the simulator's control path never grows the slice.
func New(runID string) *Trace {
	t := &Trace{runID: runID, epoch: time.Now(), rounds: make([]Round, 0, 128)}
	t.spans = append(t.spans, Span{Name: RootStage, Parent: -1, Start: 0, End: -1})
	t.stack = append(t.stack, 0)
	return t
}

// Now returns the current offset from the trace epoch (0 on nil).
func (t *Trace) Now() time.Duration {
	if t == nil {
		return 0
	}
	return time.Since(t.epoch)
}

// Handle names one started span; End closes it. The zero Handle (from
// a nil trace) is a no-op.
type Handle struct {
	t   *Trace
	idx int32
}

// Start opens a span nested under the innermost open span and returns
// its handle.
func (t *Trace) Start(name string) Handle {
	if t == nil {
		return Handle{}
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	parent := int32(0)
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	idx := int32(len(t.spans))
	t.spans = append(t.spans, Span{Name: name, Parent: int(parent), Start: now, End: -1})
	t.stack = append(t.stack, idx)
	t.mu.Unlock()
	return Handle{t: t, idx: idx}
}

// End closes the span. Idempotent; spans left open are closed by
// Finish.
func (h Handle) End() {
	if h.t == nil {
		return
	}
	t := h.t
	now := time.Since(t.epoch)
	t.mu.Lock()
	if sp := &t.spans[h.idx]; sp.End < 0 {
		sp.End = now
	}
	for n := len(t.stack); n > 0; n-- {
		if t.stack[n-1] == h.idx {
			t.stack = t.stack[:n-1]
			break
		}
	}
	t.mu.Unlock()
}

// AddRound appends one control-round record.
func (t *Trace) AddRound(r Round) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.rounds = append(t.rounds, r)
	t.mu.Unlock()
}

// AddEvent places an instant annotation at offset at.
func (t *Trace) AddEvent(name string, at time.Duration, args string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.events = append(t.events, Event{At: at, Name: name, Args: args})
	t.mu.Unlock()
}

// Finish closes every open span (including the root) and freezes the
// trace total. Idempotent.
func (t *Trace) Finish() {
	if t == nil {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	if !t.done {
		for _, idx := range t.stack {
			if t.spans[idx].End < 0 {
				t.spans[idx].End = now
			}
		}
		t.stack = t.stack[:0]
		if t.spans[0].End < 0 {
			t.spans[0].End = now
		}
		t.total = t.spans[0].End
		t.done = true
	}
	t.mu.Unlock()
}

// Done reports whether Finish has run.
func (t *Trace) Done() bool {
	if t == nil {
		return false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.done
}

// Total returns the root span's duration (current elapsed time before
// Finish).
func (t *Trace) Total() time.Duration {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.totalLocked()
}

func (t *Trace) totalLocked() time.Duration {
	if t.done {
		return t.total
	}
	return time.Since(t.epoch)
}

// Spans returns a copy of the tree in creation order; open spans have
// End -1.
func (t *Trace) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// Rounds returns a copy of the recorded control rounds.
func (t *Trace) Rounds() []Round {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Round(nil), t.rounds...)
}

// Events returns a copy of the recorded instant events.
func (t *Trace) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Event(nil), t.events...)
}

// StageSummary is one stage's aggregated self time across a trace.
type StageSummary struct {
	Stage string `json:"stage"`
	// NS is the stage's total self time (duration minus child spans).
	NS int64 `json:"ns"`
	// Count is the number of spans with this name.
	Count int `json:"count"`
}

// Summary is the compact per-stage decomposition of one trace: stage
// self times that sum to TotalNS by construction, plus the control
// rounds as a count and a total (the rounds are inside the sim stage;
// they are not subtracted from it). It is the span artifact embedded
// in RunResult wire v1.
type Summary struct {
	RunID   string         `json:"run_id,omitempty"`
	TotalNS int64          `json:"total_ns"`
	Stages  []StageSummary `json:"stages,omitempty"`
	Rounds  int            `json:"rounds,omitempty"`
	RoundNS int64          `json:"round_ns,omitempty"`
}

// Stage returns the named stage's self time (0 when absent).
func (s Summary) Stage(name string) time.Duration {
	for _, st := range s.Stages {
		if st.Stage == name {
			return time.Duration(st.NS)
		}
	}
	return 0
}

// Summary aggregates the trace into per-stage self times, in first-use
// order. Open spans are treated as ending now.
func (t *Trace) Summary() Summary {
	if t == nil {
		return Summary{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	end := t.totalLocked()
	child := make([]time.Duration, len(t.spans))
	for i := 1; i < len(t.spans); i++ {
		sp := t.spans[i]
		e := sp.End
		if e < 0 {
			e = end
		}
		child[sp.Parent] += e - sp.Start
	}
	type agg struct {
		dur time.Duration
		n   int
	}
	order := make([]string, 0, 8)
	byName := make(map[string]*agg, 8)
	for i, sp := range t.spans {
		e := sp.End
		if e < 0 {
			e = end
		}
		self := (e - sp.Start) - child[i]
		if self < 0 {
			self = 0
		}
		a := byName[sp.Name]
		if a == nil {
			a = &agg{}
			byName[sp.Name] = a
			order = append(order, sp.Name)
		}
		a.dur += self
		a.n++
	}
	sum := Summary{RunID: t.runID, Rounds: len(t.rounds)}
	if len(t.spans) > 0 {
		e := t.spans[0].End
		if e < 0 {
			e = end
		}
		sum.TotalNS = int64(e - t.spans[0].Start)
	}
	for _, name := range order {
		a := byName[name]
		sum.Stages = append(sum.Stages, StageSummary{Stage: name, NS: int64(a.dur), Count: a.n})
	}
	for _, r := range t.rounds {
		sum.RoundNS += int64(r.End - r.Start)
	}
	return sum
}

// Render returns an indented textual tree — the slow-run log format.
func (t *Trace) Render() string {
	if t == nil {
		return ""
	}
	t.mu.Lock()
	spans := append([]Span(nil), t.spans...)
	rounds := len(t.rounds)
	end := t.totalLocked()
	t.mu.Unlock()

	children := make([][]int, len(spans))
	for i := 1; i < len(spans); i++ {
		p := spans[i].Parent
		children[p] = append(children[p], i)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "trace %s\n", t.runID)
	var walk func(i, depth int)
	walk = func(i, depth int) {
		sp := spans[i]
		e := sp.End
		if e < 0 {
			e = end
		}
		fmt.Fprintf(&b, "%s%-10s %12v  [%v → %v]\n",
			strings.Repeat("  ", depth+1), sp.Name, e-sp.Start, sp.Start, e)
		for _, c := range children[i] {
			walk(c, depth+1)
		}
	}
	if len(spans) > 0 {
		walk(0, 0)
	}
	if rounds > 0 {
		fmt.Fprintf(&b, "  %d control rounds\n", rounds)
	}
	return b.String()
}

type ctxKey struct{}

// NewContext attaches the trace to the context; a nil trace returns
// ctx unchanged.
func NewContext(ctx context.Context, t *Trace) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, t)
}

// FromContext returns the context's trace, or nil — the disabled
// recorder every method accepts.
func FromContext(ctx context.Context) *Trace {
	if ctx == nil {
		return nil
	}
	t, _ := ctx.Value(ctxKey{}).(*Trace)
	return t
}
