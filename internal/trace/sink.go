package trace

import (
	"fmt"
	"io"
	"iter"
	"sync"
	"time"

	"dufp/internal/sim"
	"dufp/internal/units"
)

// Sink consumes trace samples as the simulator produces them: a sink
// sees each (socket, point) pair exactly once, in emission order, and
// keeps only what it needs — a reservoir, a running average, a CSV row.
// Sinks are pure observers: attaching one never changes the measured
// run.
//
// Consume is called from the simulation's single decision loop, so
// implementations need no internal locking unless they are also read
// concurrently while the run is in flight (Reservoir is; the rest are
// read only after the run completes).
type Sink interface {
	Consume(socket int, p sim.TracePoint)
}

// SinkFunc adapts a function to the Sink interface.
type SinkFunc func(socket int, p sim.TracePoint)

// Consume implements Sink.
func (f SinkFunc) Consume(socket int, p sim.TracePoint) { f(socket, p) }

// Tee fans each sample out to every sink, in argument order. Nil sinks
// are skipped.
func Tee(sinks ...Sink) Sink {
	live := make([]Sink, 0, len(sinks))
	for _, s := range sinks {
		if s != nil {
			live = append(live, s)
		}
	}
	if len(live) == 1 {
		return live[0]
	}
	return tee(live)
}

type tee []Sink

func (t tee) Consume(socket int, p sim.TracePoint) {
	for _, s := range t {
		s.Consume(socket, p)
	}
}

// Hook adapts a sink to the sim.RunOpts.Trace callback.
func Hook(s Sink) func(socket int, p sim.TracePoint) {
	if s == nil {
		return nil
	}
	return s.Consume
}

// Summary is the O(1) aggregate of a trace: per-socket sample counts and
// the exact streaming averages of delivered core frequency and package
// power. It is what crosses the wire (v1.1 trace_summary) in place of
// the full series, and what RunResult carries for every traced run. The
// averages accumulate in emission order, so a Summary computed by a
// streaming sink is bit-identical to one computed from the full series.
type Summary struct {
	// Points counts the samples seen per socket.
	Points []int
	// AvgCoreFreq and AvgPkgPower are the per-socket averages over the
	// whole run (zero for sockets that produced no samples).
	AvgCoreFreq []units.Frequency
	AvgPkgPower []units.Power
}

// Sockets returns the number of sockets the summary covers.
func (s Summary) Sockets() int { return len(s.Points) }

// Summarizer is a Sink that maintains the exact per-socket aggregates of
// Summary in O(sockets) memory. Its averages are bit-identical to
// AvgCoreFreq/AvgPower over the full series because both accumulate
// left to right in emission order.
type Summarizer struct {
	points   []int
	coreSum  []float64
	powerSum []float64
}

// NewSummarizer returns an empty Summarizer; sockets are added as
// samples for them arrive.
func NewSummarizer() *Summarizer { return &Summarizer{} }

func (s *Summarizer) grow(socket int) {
	for len(s.points) <= socket {
		s.points = append(s.points, 0)
		s.coreSum = append(s.coreSum, 0)
		s.powerSum = append(s.powerSum, 0)
	}
}

// Consume implements Sink.
func (s *Summarizer) Consume(socket int, p sim.TracePoint) {
	if socket < 0 {
		return
	}
	s.grow(socket)
	s.points[socket]++
	s.coreSum[socket] += float64(p.CoreFreq)
	s.powerSum[socket] += float64(p.PkgPower)
}

// AvgCoreFreq returns the average delivered core frequency of a socket.
func (s *Summarizer) AvgCoreFreq(socket int) units.Frequency {
	if socket < 0 || socket >= len(s.points) || s.points[socket] == 0 {
		return 0
	}
	return units.Frequency(s.coreSum[socket] / float64(s.points[socket]))
}

// AvgPower returns the average package power of a socket.
func (s *Summarizer) AvgPower(socket int) units.Power {
	if socket < 0 || socket >= len(s.points) || s.points[socket] == 0 {
		return 0
	}
	return units.Power(s.powerSum[socket] / float64(s.points[socket]))
}

// Len returns the number of samples seen for a socket.
func (s *Summarizer) Len(socket int) int {
	if socket < 0 || socket >= len(s.points) {
		return 0
	}
	return s.points[socket]
}

// Summary snapshots the aggregates.
func (s *Summarizer) Summary() Summary {
	out := Summary{
		Points:      make([]int, len(s.points)),
		AvgCoreFreq: make([]units.Frequency, len(s.points)),
		AvgPkgPower: make([]units.Power, len(s.points)),
	}
	copy(out.Points, s.points)
	for i := range s.points {
		out.AvgCoreFreq[i] = s.AvgCoreFreq(i)
		out.AvgPkgPower[i] = s.AvgPower(i)
	}
	return out
}

// WindowStats is a Sink that streams the per-socket average package
// power over a fixed [From, To) time window — the Fig 1b measurement —
// without retaining any samples. Accumulation order matches
// AvgPower(Window(series, from, to)) exactly, so the streaming average
// is bit-identical to the slice-based one.
type WindowStats struct {
	from, to time.Duration
	count    []int
	powerSum []float64
}

// NewWindowStats returns a window-average sink over [from, to).
func NewWindowStats(from, to time.Duration) *WindowStats {
	return &WindowStats{from: from, to: to}
}

// Consume implements Sink.
func (w *WindowStats) Consume(socket int, p sim.TracePoint) {
	if socket < 0 || p.Time < w.from || p.Time >= w.to {
		return
	}
	for len(w.count) <= socket {
		w.count = append(w.count, 0)
		w.powerSum = append(w.powerSum, 0)
	}
	w.count[socket]++
	w.powerSum[socket] += float64(p.PkgPower)
}

// AvgPower returns the average package power of a socket inside the
// window; zero when the window saw no samples.
func (w *WindowStats) AvgPower(socket int) units.Power {
	if socket < 0 || socket >= len(w.count) || w.count[socket] == 0 {
		return 0
	}
	return units.Power(w.powerSum[socket] / float64(w.count[socket]))
}

// Len returns the number of samples a socket produced inside the window.
func (w *WindowStats) Len(socket int) int {
	if socket < 0 || socket >= len(w.count) {
		return 0
	}
	return w.count[socket]
}

// DefaultReservoirPoints is the per-socket capacity a Reservoir gets
// when constructed with a non-positive one. At the trace cadence of
// 100 samples per simulated second it holds the paper's runs losslessly
// and bounds pathological ones.
const DefaultReservoirPoints = 8192

// Reservoir is a Sink that retains a bounded, deterministically
// downsampled view of each socket's series in O(capacity) memory,
// however long the run: it keeps every stride-th sample and doubles the
// stride (dropping every other retained point) whenever the buffer
// would exceed its capacity. The first sample is always retained, the
// most recent one is always available, and while a socket has produced
// no more samples than the capacity the view is lossless — so short
// runs round-trip exactly and long runs degrade to a coarser, evenly
// spaced grid instead of unbounded growth.
//
// A reservoir whose capacity covers every sample a run can produce
// never decimates: that is how a run record keeps its lossless series.
//
// Alongside the downsampled points the reservoir streams the exact
// Summary aggregates, so averages never suffer from the decimation.
// All methods are safe for concurrent use: the daemon reads a run's
// reservoir while the run is still producing.
type Reservoir struct {
	mu       sync.Mutex
	capacity int
	sockets  []*reservoirSocket
	sum      Summarizer
}

// reservoirBlock is how many points one storage block of a Reservoir
// holds: 256 × 72 B is 18 KiB, a small-object size class. A socket's
// retained points fill its blocks in order and a full last block gets a
// new one after it, so no append ever copies the series and no more
// than one partly filled block sits idle.
const reservoirBlock = 256

type reservoirSocket struct {
	// blocks holds the n retained points in time order, point i at
	// blocks[i/reservoirBlock][i%reservoirBlock].
	blocks  []*[reservoirBlock]sim.TracePoint
	n       int
	stride  int
	seen    int64
	last    sim.TracePoint
	hasLast bool
}

// at returns the i-th retained point.
func (s *reservoirSocket) at(i int) *sim.TracePoint {
	return &s.blocks[i/reservoirBlock][i%reservoirBlock]
}

// keep appends p to the retained points.
func (s *reservoirSocket) keep(p sim.TracePoint) {
	if s.n == len(s.blocks)*reservoirBlock {
		s.blocks = append(s.blocks, new([reservoirBlock]sim.TracePoint))
	}
	*s.at(s.n) = p
	s.n++
}

// halve keeps every other retained point — exactly the samples a
// doubled stride would have kept — moving them forward in place, and
// drops the blocks that leaves empty.
func (s *reservoirSocket) halve() {
	n := (s.n + 1) / 2
	for i := 1; i < n; i++ {
		*s.at(i) = *s.at(2 * i)
	}
	used := (n + reservoirBlock - 1) / reservoirBlock
	clear(s.blocks[used:])
	s.blocks = s.blocks[:used]
	s.n = n
}

// total is the length of the socket's view: the retained points plus
// the most recent sample when the stride grid skipped it.
func (s *reservoirSocket) total() int {
	if s.hasLast && (s.n == 0 || s.at(s.n-1).Time != s.last.Time) {
		return s.n + 1
	}
	return s.n
}

// view copies the socket's view from point from on into dst, as much as
// dst holds; from+len(dst) must not exceed total.
func (s *reservoirSocket) view(dst []sim.TracePoint, from int) {
	for len(dst) > 0 && from < s.n {
		b := s.blocks[from/reservoirBlock][from%reservoirBlock:]
		k := copy(dst, b[:min(len(b), s.n-from)])
		dst, from = dst[k:], from+k
	}
	if len(dst) > 0 {
		dst[0] = s.last
	}
}

// NewReservoir returns a reservoir retaining at most pointsPerSocket
// samples per socket (non-positive selects DefaultReservoirPoints).
func NewReservoir(pointsPerSocket int) *Reservoir {
	if pointsPerSocket <= 0 {
		pointsPerSocket = DefaultReservoirPoints
	}
	return &Reservoir{capacity: pointsPerSocket}
}

// Grow makes the reservoir cover at least n sockets, so that a socket
// that produced no sample still counts in Sockets and Summary: a
// decoded trace keeps its empty series.
func (r *Reservoir) Grow(n int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for len(r.sockets) < n {
		r.sockets = append(r.sockets, &reservoirSocket{stride: 1})
	}
	r.sum.grow(n - 1)
}

// Consume implements Sink.
func (r *Reservoir) Consume(socket int, p sim.TracePoint) {
	if socket < 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for len(r.sockets) <= socket {
		r.sockets = append(r.sockets, &reservoirSocket{stride: 1})
	}
	r.sum.Consume(socket, p)
	s := r.sockets[socket]
	if s.seen%int64(s.stride) == 0 {
		s.keep(p)
		if s.n > r.capacity {
			s.halve()
			s.stride *= 2
		}
	}
	s.seen++
	s.last, s.hasLast = p, true
}

// Sockets returns the number of sockets that have produced samples.
func (r *Reservoir) Sockets() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.sockets)
}

// Seen returns the total number of samples a socket has produced —
// including those the reservoir decimated away.
func (r *Reservoir) Seen(socket int) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if socket < 0 || socket >= len(r.sockets) {
		return 0
	}
	return r.sockets[socket].seen
}

// Len returns the number of samples currently retained for a socket
// (including the trailing sample Snapshot appends).
func (r *Reservoir) Len(socket int) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if socket < 0 || socket >= len(r.sockets) {
		return 0
	}
	return r.sockets[socket].total()
}

// Stride returns the socket's current decimation stride; 1 means the
// retained view is lossless so far.
func (r *Reservoir) Stride(socket int) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if socket < 0 || socket >= len(r.sockets) {
		return 1
	}
	return r.sockets[socket].stride
}

// Snapshot copies the retained view of one socket: every stride-th
// sample plus the most recent one, in time order.
func (r *Reservoir) Snapshot(socket int) []sim.TracePoint {
	return r.Page(socket, 0, 0).Points
}

// Page is one consistent read of a socket's retained view, taken under
// a single lock: Seen, Stride and Total describe the same moment, and
// Points holds view points [Offset, Offset+len(Points)).
type Page struct {
	// Sockets counts the sockets that have produced samples.
	Sockets int
	// Seen, Stride and Total are what Seen, Stride and Len return.
	Seen   int64
	Stride int
	Total  int
	// Offset is the requested offset clamped to [0, Total].
	Offset int
	Points []sim.TracePoint
}

// Page copies up to limit points of a socket's retained view starting
// at offset (limit <= 0 means the remainder), copying no point outside
// the page.
func (r *Reservoir) Page(socket, offset, limit int) Page {
	r.mu.Lock()
	defer r.mu.Unlock()
	pg := Page{Sockets: len(r.sockets), Stride: 1}
	if socket < 0 || socket >= len(r.sockets) {
		return pg
	}
	s := r.sockets[socket]
	pg.Seen, pg.Stride, pg.Total = s.seen, s.stride, s.total()
	pg.Offset = min(max(offset, 0), pg.Total)
	n := pg.Total - pg.Offset
	if limit > 0 && limit < n {
		n = limit
	}
	pg.Points = make([]sim.TracePoint, n)
	s.view(pg.Points, pg.Offset)
	return pg
}

// Points returns an iterator over the retained view of one socket. The
// iteration walks a snapshot, so it is safe while the run is still
// producing.
func (r *Reservoir) Points(socket int) iter.Seq[sim.TracePoint] {
	return func(yield func(sim.TracePoint) bool) {
		for _, p := range r.Snapshot(socket) {
			if !yield(p) {
				return
			}
		}
	}
}

// Summary returns the exact streaming aggregates — decimation never
// touches them.
func (r *Reservoir) Summary() Summary {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.sum.Summary()
}

// CSVSink is a Sink that streams one socket's samples as CSV rows in
// WriteCSV's format, holding no samples in memory. Write errors are
// sticky: the first one stops further output and is reported by Err.
type CSVSink struct {
	w      io.Writer
	socket int
	count  int
	header bool
	err    error
}

// NewCSVSink returns a sink streaming the given socket's samples to w.
func NewCSVSink(w io.Writer, socket int) *CSVSink {
	return &CSVSink{w: w, socket: socket}
}

// Consume implements Sink.
func (c *CSVSink) Consume(socket int, p sim.TracePoint) {
	if socket != c.socket || c.err != nil {
		return
	}
	if !c.header {
		c.header = true
		if _, err := fmt.Fprintln(c.w, csvHeader); err != nil {
			c.err = err
			return
		}
	}
	if _, err := fmt.Fprintf(c.w, csvRowFormat,
		p.Time.Seconds(), p.CoreFreq.GHz(), p.UncoreFreq.GHz(),
		p.PkgPower.Watts(), p.DramPower.Watts(),
		p.CapPL1.Watts(), p.CapPL2.Watts(), p.Bandwidth.GBs()); err != nil {
		c.err = err
		return
	}
	c.count++
}

// Count returns the number of rows written.
func (c *CSVSink) Count() int { return c.count }

// Err returns the first write error, if any.
func (c *CSVSink) Err() error { return c.err }
