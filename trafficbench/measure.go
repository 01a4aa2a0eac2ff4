package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"dufp"
	"dufp/internal/obs"
)

// phase is one measured pass of a workload's traffic.
type phase struct {
	traced bool
	// spans records the benchmark's own calls into each layer; nil (a
	// no-op) on an untraced pass.
	spans *spanLog
	// lat holds the workload's headline latencies in milliseconds; ops
	// counts completed operations over window.
	lat    []float64
	ops    int64
	window time.Duration

	attempted, failed int64
	mu                sync.Mutex
	mismatches        []string

	// layers holds the traced pass's per-layer metrics; host holds the
	// runtime cost every pass measures.
	layers map[string]float64
	host   map[string]float64

	// profile, when set, receives a CPU profile of the window.
	profile io.Writer

	// interlude, when set, is run interludes times between operations
	// of the window (see between); paused is the window time it took.
	interlude  func() error
	interludes int
	ran        int
	paused     time.Duration

	start         time.Time
	cpu0          time.Duration
	mem0          runtime.MemStats
	before, after snapshot
}

func newPhase(traced bool) *phase {
	p := &phase{traced: traced, layers: map[string]float64{}, host: map[string]float64{}}
	if traced {
		p.spans = newSpanLog()
	}
	return p
}

// mismatch records an output that differs from its reference.
func (p *phase) mismatch(format string, args ...any) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.mismatches) < 20 {
		p.mismatches = append(p.mismatches, fmt.Sprintf(format, args...))
	}
}

func (p *phase) correct() bool { return len(p.mismatches) == 0 && p.failed == 0 }

// begin opens the timed window: wall clock, process CPU, allocation and
// registry counters are read here and differenced at end.
func (p *phase) begin() {
	p.before = takeSnapshot(obs.Default())
	runtime.ReadMemStats(&p.mem0)
	if p.profile != nil {
		if err := pprof.StartCPUProfile(p.profile); err != nil {
			p.mismatch("starting the CPU profile: %v", err)
		}
	}
	p.cpu0 = cpuTime()
	p.start = time.Now()
}

// between is called before operation i of a window of n: it runs the
// next interlude once i reaches the next of interludes even cuts of the
// window, with the window's clock stopped. Interludes run in other
// processes, so the window's CPU, allocation and registry counters do
// not see them.
func (p *phase) between(i, n int) error {
	if p.interlude == nil || p.ran == p.interludes || i < (p.ran+1)*n/(p.interludes+1) {
		return nil
	}
	p.ran++
	start := time.Now()
	err := p.interlude()
	p.paused += time.Since(start)
	return err
}

// end closes the timed window and derives the host-cost metrics.
func (p *phase) end() {
	p.window = time.Since(p.start) - p.paused
	cpu := cpuTime() - p.cpu0
	p.after = takeSnapshot(obs.Default())
	if p.profile != nil {
		pprof.StopCPUProfile()
	}
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	ops := float64(max(p.ops, 1))
	p.host["runtime.cpu_s_per_op"] = cpu.Seconds() / ops
	p.host["runtime.alloc_mb_per_op"] = float64(mem.TotalAlloc-p.mem0.TotalAlloc) / (1 << 20) / ops
	p.host["runtime.gc_cycles"] = float64(mem.NumGC - p.mem0.NumGC)
}

// delta returns how much a registry family grew over the window,
// summed over the series whose labels include match.
func (p *phase) delta(family string, match map[string]string) float64 {
	return p.after.sum(family, match) - p.before.sum(family, match)
}

func (p *phase) result(m map[string]metric) result {
	return result{Correct: p.correct(), Attempted: p.attempted, Failed: p.failed, Metrics: m}
}

// report prints the pass's summary to the diagnostic stream.
func (p *phase) report(w io.Writer, label string) {
	fmt.Fprintf(w, "trafficbench: %s pass: %d ops in %.3f s, latency mean %.3f ms p50 %.3f ms p95 %.3f ms (n=%d), %d/%d failed\n",
		label, p.ops, p.window.Seconds(), mean(p.lat), quantile(p.lat, 0.5), quantile(p.lat, 0.95), len(p.lat), p.failed, p.attempted)
	for _, m := range p.mismatches {
		fmt.Fprintln(w, "trafficbench: mismatch:", m)
	}
}

// mean returns the arithmetic mean of xs; 0 for no samples.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// ms and us convert a duration to fractional milli- and microseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// cpuTime returns the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// spanLog is the benchmark's own span recorder: one span per call into
// a layer's entry point, nested under its caller, with every span of
// one request sharing the request's ID. It keeps everything in memory;
// writeSpans dumps it when the run ends. A nil *spanLog records nothing.
type spanLog struct {
	epoch time.Time
	mu    sync.Mutex
	spans []benchSpan
}

// benchSpan is one recorded call; Parent indexes the enclosing span
// (-1 for a request's root).
type benchSpan struct {
	Req    string `json:"req"`
	Name   string `json:"name"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func newSpanLog() *spanLog { return &spanLog{epoch: time.Now()} }

// begin opens a span and returns its index (-1 on a nil log).
func (l *spanLog) begin(req, name string, parent int) int {
	if l == nil {
		return -1
	}
	now := int64(time.Since(l.epoch))
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, benchSpan{Req: req, Name: name, Parent: parent, Start: now, End: -1})
	return len(l.spans) - 1
}

// end closes span i.
func (l *spanLog) end(i int) {
	if l == nil || i < 0 {
		return
	}
	now := int64(time.Since(l.epoch))
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans[i].End = now
}

// durations returns the durations of every closed span named name, in
// the unit of scale (e.g. time.Microsecond).
func (l *spanLog) durations(name string, scale time.Duration) []float64 {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []float64
	for _, s := range l.spans {
		if s.Name == name && s.End >= 0 {
			out = append(out, float64(s.End-s.Start)/float64(scale))
		}
	}
	return out
}

func (l *spanLog) snapshot() []benchSpan {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]benchSpan(nil), l.spans...)
}

// timed runs fn inside a span.
func (l *spanLog) timed(req, name string, parent int, fn func()) {
	i := l.begin(req, name, parent)
	fn()
	l.end(i)
}

// snapshot is a registry reading: family name → series.
type snapshot map[string][]obs.SeriesSnapshot

func takeSnapshot(r *obs.Registry) snapshot {
	s := snapshot{}
	for _, f := range r.Snapshot() {
		s[f.Name] = f.Series
	}
	return s
}

// sum adds up a family's series whose labels include match: counter and
// gauge values, or histogram sums.
func (s snapshot) sum(family string, match map[string]string) float64 {
	total := 0.0
	for _, ser := range s[family] {
		ok := true
		for k, v := range match {
			if ser.Labels[k] != v {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		if ser.Buckets != nil {
			total += ser.Sum
		} else {
			total += ser.Value
		}
	}
	return total
}

// digestRuns fingerprints every simulated statistic of runs, in order:
// the identity strings and the IEEE-754 bits of each measured field, so
// any change to the physics shows even in the last bit.
func digestRuns(runs []dufp.Run) string {
	h := sha256.New()
	var b [8]byte
	word := func(u uint64) {
		binary.LittleEndian.PutUint64(b[:], u)
		h.Write(b[:])
	}
	for _, r := range runs {
		io.WriteString(h, r.App)
		h.Write([]byte{0})
		io.WriteString(h, r.Governor)
		h.Write([]byte{0})
		word(math.Float64bits(r.Slowdown))
		word(uint64(r.Time))
		for _, f := range []float64{
			float64(r.PkgEnergy), float64(r.DramEnergy),
			float64(r.AvgPkgPower), float64(r.AvgDramPower),
			float64(r.AvgCoreFreq), float64(r.AvgUncore),
		} {
			word(math.Float64bits(f))
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// sameRun reports whether two runs agree bit for bit.
func sameRun(a, b dufp.Run) bool {
	return digestRuns([]dufp.Run{a}) == digestRuns([]dufp.Run{b})
}

// digestTable maps a digest key — a workload shape (workload, size)
// and "/seed=<input set>" — to the expected digest of its outputs.
type digestTable struct {
	entries map[string]string
}

func loadDigests(path string) (*digestTable, error) {
	t := &digestTable{entries: map[string]string{}}
	b, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return t, nil
	}
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(b, &t.entries); err != nil {
		return nil, fmt.Errorf("reading digest table %s: %w", path, err)
	}
	return t, nil
}

// check compares a digest with the table's entry for shape and the
// run's input set. A shape the table holds is a committed size, with a
// reference for every input set: a missing or differing entry is a
// mismatch. A shape the table does not hold (a reduced size, as the
// self-test runs) has no reference, and the digest is only printed.
// With record set the digest is stored instead.
func (t *digestTable) check(e *env, p *phase, shape, got string) {
	key := fmt.Sprintf("%s/seed=%d", shape, e.cfg.seed)
	want, ok := t.entries[key]
	switch {
	case e.cfg.recordDigest:
		t.entries[key] = got
		fmt.Fprintf(e.log, "trafficbench: recorded digest %s = %s\n", key, got)
	case ok && want == got:
		fmt.Fprintf(e.log, "trafficbench: digest %s matches %s\n", key, got)
	case ok:
		p.mismatch("digest %s = %s, committed %s", key, got, want)
	case t.committed(shape):
		p.mismatch("digest %s = %s has no committed reference, though the table holds this size", key, got)
	default:
		fmt.Fprintf(e.log, "trafficbench: digest %s = %s (no reference at this size)\n", key, got)
	}
}

// committed reports whether the table holds any input set of shape.
func (t *digestTable) committed(shape string) bool {
	for key := range t.entries {
		if strings.HasPrefix(key, shape+"/seed=") {
			return true
		}
	}
	return false
}

func (t *digestTable) save(path string) error {
	b, err := json.MarshalIndent(t.entries, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
