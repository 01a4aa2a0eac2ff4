package api

import (
	"sync"
	"time"

	"dufp/internal/obs"
	"dufp/internal/obs/span"
	"dufp/internal/trace"
)

// DefaultSampleCapacity is how many recently dispatched runs the daemon
// keeps records for when Config.SampleCapacity is not positive.
const DefaultSampleCapacity = 64

// record is what the daemon keeps of a dispatched run beside its status:
// the reservoir its trace streams into from the start of dispatch, the
// data behind GET /v1/runs/{id}/samples, and its span trace once
// dispatch has ended, the data behind GET /v1/runs/{id}/trace.
type record struct {
	samples *trace.Reservoir
	spans   *span.Trace // nil while the run dispatches; guarded by records.mu
}

// records is the daemon's one bounded store of run records: one map
// keyed by run ID, one lock, and the oldest dispatched run evicted once
// capacity runs are held. A reservoir is bounded by its points per
// socket, so the store's memory is O(capacity × points) whatever the
// runs' durations. Attaching a finished span trace is also where the
// slow-run log is kept.
type records struct {
	mu       sync.Mutex
	capacity int
	points   int // per-socket reservoir capacity (0: trace default)
	order    []string
	runs     map[string]*record

	slow     time.Duration // slow-run budget (0: off)
	slowRuns *obs.Counter
	logf     func(string, ...any)
}

func newRecords(capacity, points int, slow time.Duration, slowRuns *obs.Counter, logf func(string, ...any)) *records {
	if capacity <= 0 {
		capacity = DefaultSampleCapacity
	}
	return &records{
		capacity: capacity,
		points:   points,
		runs:     make(map[string]*record),
		slow:     slow,
		slowRuns: slowRuns,
		logf:     logf,
	}
}

// start makes the record of a run about to dispatch, evicting the
// oldest once the store is full, and returns it. Starting an ID the
// store holds replaces its record in place.
func (s *records) start(id string) *record {
	r := &record{samples: trace.NewReservoir(s.points)}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.runs[id]; !ok {
		if len(s.order) >= s.capacity {
			delete(s.runs, s.order[0])
			s.order = s.order[1:]
		}
		s.order = append(s.order, id)
	}
	s.runs[id] = r
	return r
}

// attach finishes a run's span trace and puts it on the run's record;
// a record evicted while its run dispatched takes it with it. A trace
// over the slow-run budget is counted and its tree logged.
func (s *records) attach(r *record, tr *span.Trace) {
	tr.Finish()
	s.mu.Lock()
	r.spans = tr
	s.mu.Unlock()
	if total := tr.Total(); s.slow > 0 && total > s.slow {
		s.slowRuns.Inc()
		s.logf("span: slow run (%v > %v budget)\n%s", total, s.slow, tr.Render())
	}
}

// reservoir returns the reservoir of a retained run.
func (s *records) reservoir(id string) (*trace.Reservoir, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.runs[id]
	if !ok {
		return nil, false
	}
	return r.samples, true
}

// SpanTraces is the span-trace view of the daemon's run records.
type SpanTraces struct{ records *records }

// Get returns the span trace of a retained run whose dispatch has
// ended.
func (v SpanTraces) Get(id string) (*span.Trace, bool) {
	s := v.records
	s.mu.Lock()
	defer s.mu.Unlock()
	if r, ok := s.runs[id]; ok && r.spans != nil {
		return r.spans, true
	}
	return nil, false
}
