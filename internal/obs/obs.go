// Package obs is the harness's unified telemetry layer: a lock-free
// metrics registry of counters, gauges and fixed-bucket histograms with
// labels, rendered on demand as Prometheus text exposition or JSON.
//
// Hot paths hold pre-resolved series handles (obtained once via With), so
// recording a sample is a single atomic operation with no allocation and
// no lock — instrumented runs stay bit-identical to uninstrumented ones
// because nothing here feeds back into the computation. The executor, the
// simulator loop and the controllers all publish here, and dufpd's one
// handler (api.Daemon.FullHandler) serves the result live at /metrics and
// /metrics.json.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Kind classifies a metric family.
type Kind int

// Metric kinds.
const (
	// KindCounter is a monotonically increasing value.
	KindCounter Kind = iota
	// KindGauge is a value that can go up and down.
	KindGauge
	// KindHistogram is a fixed-bucket distribution.
	KindHistogram
)

// String names the kind in Prometheus TYPE terms.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Registry holds metric families. The zero value is not usable; create
// one with NewRegistry or use the process-wide Default.
type Registry struct {
	mu   sync.Mutex
	fams map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

var defaultRegistry = NewRegistry()

// Default returns the process-wide registry that the harness's built-in
// instrumentation publishes to.
func Default() *Registry { return defaultRegistry }

// family is one named metric with a label schema and its series.
type family struct {
	name    string
	help    string
	kind    Kind
	labels  []string
	buckets []float64 // histogram upper bounds, strictly increasing

	newMu  sync.Mutex // serialises creation of new series
	series sync.Map   // label key -> *series
}

// series is one labelled time series. Counter and gauge values live in
// bits as float64 bit patterns; histograms use counts (one per bucket
// plus +Inf), sumBits and count, plus one last-writer exemplar slot per
// bucket (populated only through ObserveExemplar).
type series struct {
	labelValues []string
	bits        atomic.Uint64
	counts      []atomic.Uint64
	sumBits     atomic.Uint64
	count       atomic.Uint64
	exemplars   []atomic.Pointer[Exemplar]
}

// register looks up or creates the family, enforcing schema consistency:
// re-registering an existing name with the same kind, labels and buckets
// returns the existing family (so independent components can share one
// metric); any mismatch panics, as it is a programming error that would
// silently corrupt the exposition.
func (r *Registry) register(name, help string, kind Kind, buckets []float64, labels []string) *family {
	if name == "" {
		panic("obs: empty metric name")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.fams[name]; ok {
		if f.kind != kind || !equalStrings(f.labels, labels) || !equalFloats(f.buckets, buckets) {
			panic(fmt.Sprintf("obs: metric %q re-registered with a different schema", name))
		}
		return f
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic(fmt.Sprintf("obs: histogram %q buckets must increase strictly", name))
		}
	}
	f := &family{
		name:    name,
		help:    help,
		kind:    kind,
		labels:  append([]string(nil), labels...),
		buckets: append([]float64(nil), buckets...),
	}
	r.fams[name] = f
	return f
}

// Counter registers (or looks up) a counter family with the given label
// names.
func (r *Registry) Counter(name, help string, labelNames ...string) *CounterVec {
	return &CounterVec{fam: r.register(name, help, KindCounter, nil, labelNames)}
}

// Gauge registers (or looks up) a gauge family with the given label names.
func (r *Registry) Gauge(name, help string, labelNames ...string) *GaugeVec {
	return &GaugeVec{fam: r.register(name, help, KindGauge, nil, labelNames)}
}

// Histogram registers (or looks up) a histogram family with the given
// bucket upper bounds (strictly increasing; +Inf is implicit) and label
// names.
func (r *Registry) Histogram(name, help string, buckets []float64, labelNames ...string) *HistogramVec {
	if len(buckets) == 0 {
		buckets = DefBuckets
	}
	return &HistogramVec{fam: r.register(name, help, KindHistogram, buckets, labelNames)}
}

// DefBuckets are latency-shaped default histogram bounds in seconds.
var DefBuckets = []float64{0.001, 0.005, 0.01, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60}

// ExpBuckets returns n strictly increasing bounds starting at start and
// multiplying by factor.
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("obs: ExpBuckets needs start > 0, factor > 1, n >= 1")
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = start
		start *= factor
	}
	return out
}

// get resolves the series for one label-value tuple, creating it on first
// use. Lookups are lock-free; only creation takes the family lock.
func (f *family) get(values []string) *series {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %q wants %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	k := labelKey(values)
	if s, ok := f.series.Load(k); ok {
		return s.(*series)
	}
	f.newMu.Lock()
	defer f.newMu.Unlock()
	if s, ok := f.series.Load(k); ok {
		return s.(*series)
	}
	s := &series{labelValues: append([]string(nil), values...)}
	if f.kind == KindHistogram {
		s.counts = make([]atomic.Uint64, len(f.buckets)+1)
		s.exemplars = make([]atomic.Pointer[Exemplar], len(f.buckets)+1)
	}
	f.series.Store(k, s)
	return s
}

// labelKey joins label values with an unlikely separator.
func labelKey(values []string) string { return strings.Join(values, "\x1f") }

// CounterVec is a counter family; With resolves one labelled handle.
type CounterVec struct{ fam *family }

// With returns the counter for one label-value tuple. Resolve once and
// keep the handle on hot paths.
func (v *CounterVec) With(labelValues ...string) *Counter {
	return &Counter{s: v.fam.get(labelValues)}
}

// Counter is a monotonically increasing metric handle.
type Counter struct{ s *series }

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds a non-negative delta; negative deltas are ignored (counters
// are monotone).
func (c *Counter) Add(delta float64) {
	if delta < 0 {
		return
	}
	addFloat(&c.s.bits, delta)
}

// Value returns the current count.
func (c *Counter) Value() float64 { return math.Float64frombits(c.s.bits.Load()) }

// GaugeVec is a gauge family; With resolves one labelled handle.
type GaugeVec struct{ fam *family }

// With returns the gauge for one label-value tuple.
func (v *GaugeVec) With(labelValues ...string) *Gauge {
	return &Gauge{s: v.fam.get(labelValues)}
}

// Gauge is a settable metric handle.
type Gauge struct{ s *series }

// Set replaces the value.
func (g *Gauge) Set(v float64) { g.s.bits.Store(math.Float64bits(v)) }

// Add shifts the value by delta (negative allowed).
func (g *Gauge) Add(delta float64) { addFloat(&g.s.bits, delta) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.s.bits.Load()) }

// HistogramVec is a histogram family; With resolves one labelled handle.
type HistogramVec struct{ fam *family }

// With returns the histogram for one label-value tuple.
func (v *HistogramVec) With(labelValues ...string) *Histogram {
	return &Histogram{buckets: v.fam.buckets, s: v.fam.get(labelValues)}
}

// Histogram is a fixed-bucket distribution handle.
type Histogram struct {
	buckets []float64
	s       *series
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) { h.ObserveExemplar(v, "") }

// Exemplar links one observed sample to the identity that produced it
// — for this harness, a run ID — so a hot latency bucket names a
// concrete run whose span tree can be pulled from dufpd's run records.
type Exemplar struct {
	// ID is the traced identity of the sample (a run ID).
	ID string `json:"id"`
	// Value is the observed sample.
	Value float64 `json:"value"`
}

// ObserveExemplar records one sample and, when id is non-empty, stamps
// it as the bucket's exemplar (last writer wins). Exemplars surface in
// JSON snapshots only; the Prometheus 0.0.4 text format predates them
// and stays unchanged.
func (h *Histogram) ObserveExemplar(v float64, id string) {
	i := sort.SearchFloat64s(h.buckets, v) // first bound >= v; len(buckets) is +Inf
	h.s.counts[i].Add(1)
	addFloat(&h.s.sumBits, v)
	h.s.count.Add(1)
	if id != "" {
		h.s.exemplars[i].Store(&Exemplar{ID: id, Value: v})
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.s.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.s.sumBits.Load()) }

// addFloat atomically adds delta to a float64 stored as bits.
func addFloat(bits *atomic.Uint64, delta float64) {
	for {
		old := bits.Load()
		if bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+delta)) {
			return
		}
	}
}

// BucketSnapshot is one histogram bucket in a snapshot: the upper bound
// and the cumulative count of observations at or below it.
type BucketSnapshot struct {
	// LE is the bucket's inclusive upper bound; +Inf on the last bucket.
	LE float64 `json:"le"`
	// Count is the cumulative observation count.
	Count uint64 `json:"count"`
	// Exemplar is the bucket's most recent exemplar, if any sample was
	// recorded through ObserveExemplar with an identity.
	Exemplar *Exemplar `json:"exemplar,omitempty"`
}

// bucketJSON carries a bucket across JSON with the bound as a string, the
// only way to represent the +Inf bucket in standard JSON.
type bucketJSON struct {
	LE       string    `json:"le"`
	Count    uint64    `json:"count"`
	Exemplar *Exemplar `json:"exemplar,omitempty"`
}

// MarshalJSON renders the bound as a string ("0.5", "+Inf").
func (b BucketSnapshot) MarshalJSON() ([]byte, error) {
	return json.Marshal(bucketJSON{LE: formatLE(b.LE), Count: b.Count, Exemplar: b.Exemplar})
}

// UnmarshalJSON parses the string bound back.
func (b *BucketSnapshot) UnmarshalJSON(data []byte) error {
	var bj bucketJSON
	if err := json.Unmarshal(data, &bj); err != nil {
		return err
	}
	b.Count = bj.Count
	b.Exemplar = bj.Exemplar
	if bj.LE == "+Inf" {
		b.LE = math.Inf(1)
		return nil
	}
	le, err := strconv.ParseFloat(bj.LE, 64)
	b.LE = le
	return err
}

// SeriesSnapshot is one labelled series in a snapshot.
type SeriesSnapshot struct {
	// Labels maps label names to this series' values (nil when the family
	// is unlabelled).
	Labels map[string]string `json:"labels,omitempty"`
	// Value is the counter or gauge value (histograms use Sum/Count/Buckets).
	Value float64 `json:"value"`
	// Sum and Count summarise a histogram's observations.
	Sum   float64 `json:"sum,omitempty"`
	Count uint64  `json:"count,omitempty"`
	// Buckets holds a histogram's cumulative buckets.
	Buckets []BucketSnapshot `json:"buckets,omitempty"`

	key string
}

// FamilySnapshot is one metric family in a snapshot.
type FamilySnapshot struct {
	Name   string           `json:"name"`
	Help   string           `json:"help,omitempty"`
	Kind   string           `json:"kind"`
	Series []SeriesSnapshot `json:"series"`
}

// Snapshot returns a consistent, deterministically ordered view of every
// family and series: families sorted by name, series by label values.
// (Individual values are read atomically; the snapshot as a whole is not
// a single atomic cut, which is the usual contract of scrape-based
// telemetry.)
func (r *Registry) Snapshot() []FamilySnapshot {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.fams))
	for _, f := range r.fams {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	out := make([]FamilySnapshot, 0, len(fams))
	for _, f := range fams {
		fs := FamilySnapshot{Name: f.name, Help: f.help, Kind: f.kind.String()}
		f.series.Range(func(_, v any) bool {
			s := v.(*series)
			ss := SeriesSnapshot{key: labelKey(s.labelValues)}
			if len(f.labels) > 0 {
				ss.Labels = make(map[string]string, len(f.labels))
				for i, name := range f.labels {
					ss.Labels[name] = s.labelValues[i]
				}
			}
			switch f.kind {
			case KindHistogram:
				ss.Sum = math.Float64frombits(s.sumBits.Load())
				ss.Count = s.count.Load()
				var cum uint64
				ss.Buckets = make([]BucketSnapshot, len(f.buckets)+1)
				for i := range s.counts {
					cum += s.counts[i].Load()
					le := math.Inf(1)
					if i < len(f.buckets) {
						le = f.buckets[i]
					}
					ss.Buckets[i] = BucketSnapshot{LE: le, Count: cum, Exemplar: s.exemplars[i].Load()}
				}
			default:
				ss.Value = math.Float64frombits(s.bits.Load())
			}
			fs.Series = append(fs.Series, ss)
			return true
		})
		sort.Slice(fs.Series, func(i, j int) bool { return fs.Series[i].key < fs.Series[j].key })
		out = append(out, fs)
	}
	return out
}

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4).
func (r *Registry) WritePrometheus(w io.Writer) error {
	var b strings.Builder
	for _, fam := range r.Snapshot() {
		if fam.Help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", fam.Name, escapeHelp(fam.Help))
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", fam.Name, fam.Kind)
		for _, s := range fam.Series {
			if fam.Kind == KindHistogram.String() {
				for _, bk := range s.Buckets {
					fmt.Fprintf(&b, "%s_bucket%s %d\n",
						fam.Name, labelString(s.Labels, "le", formatLE(bk.LE)), bk.Count)
				}
				fmt.Fprintf(&b, "%s_sum%s %s\n", fam.Name, labelString(s.Labels, "", ""), formatFloat(s.Sum))
				fmt.Fprintf(&b, "%s_count%s %d\n", fam.Name, labelString(s.Labels, "", ""), s.Count)
				continue
			}
			fmt.Fprintf(&b, "%s%s %s\n", fam.Name, labelString(s.Labels, "", ""), formatFloat(s.Value))
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// WriteJSON renders the snapshot as indented JSON.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}

// labelString renders a {name="value",...} clause, optionally appending
// one extra pair (the histogram "le" label), sorted by name. It returns
// the empty string when there are no labels at all.
func labelString(labels map[string]string, extraName, extraValue string) string {
	if len(labels) == 0 && extraName == "" {
		return ""
	}
	names := make([]string, 0, len(labels)+1)
	for name := range labels {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	b.WriteByte('{')
	for i, name := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s="%s"`, name, escapeLabel(labels[name]))
	}
	if extraName != "" {
		if len(names) > 0 {
			b.WriteByte(',')
		}
		// extraValue is always a formatted bucket bound, never user text,
		// but escape it anyway so the rule has no exceptions.
		fmt.Fprintf(&b, `%s="%s"`, extraName, escapeLabel(extraValue))
	}
	b.WriteByte('}')
	return b.String()
}

func formatLE(le float64) string {
	if math.IsInf(le, 1) {
		return "+Inf"
	}
	return formatFloat(le)
}

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// labelEscaper implements the exposition format's label-value escaping:
// backslash, double quote and newline, and nothing else. Go's %q is not a
// substitute — it additionally escapes control characters and non-ASCII
// runes as \x/\u sequences the format treats as literal text, so a tab or
// an accented name would round-trip wrong through a Prometheus scrape.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(v string) string { return labelEscaper.Replace(v) }

func escapeHelp(h string) string {
	h = strings.ReplaceAll(h, `\`, `\\`)
	return strings.ReplaceAll(h, "\n", `\n`)
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func equalFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
