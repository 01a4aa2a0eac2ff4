package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("widgets_total", "widgets made").With()
	if got := c.Value(); got != 0 {
		t.Fatalf("fresh counter = %v", got)
	}
	c.Inc()
	c.Add(2.5)
	if got := c.Value(); got != 3.5 {
		t.Fatalf("counter = %v, want 3.5", got)
	}
	c.Add(-1) // ignored: counters are monotone
	if got := c.Value(); got != 3.5 {
		t.Fatalf("counter after negative add = %v, want 3.5", got)
	}
}

func TestGaugeBasics(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("depth", "queue depth").With()
	g.Set(7)
	g.Add(-2)
	if got := g.Value(); got != 5 {
		t.Fatalf("gauge = %v, want 5", got)
	}
}

func TestLabelsSeparateSeries(t *testing.T) {
	r := NewRegistry()
	v := r.Counter("events_total", "events", "kind")
	a, b := v.With("alpha"), v.With("beta")
	a.Inc()
	a.Inc()
	b.Inc()
	if a.Value() != 2 || b.Value() != 1 {
		t.Fatalf("label series mixed: a=%v b=%v", a.Value(), b.Value())
	}
	// Resolving the same tuple twice yields the same underlying series.
	v.With("alpha").Inc()
	if a.Value() != 3 {
		t.Fatalf("re-resolved handle diverged: %v", a.Value())
	}
}

func TestHistogramObserve(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("latency_seconds", "run latency", []float64{0.1, 1, 10}).With()
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if math.Abs(h.Sum()-56.05) > 1e-9 {
		t.Fatalf("sum = %v, want 56.05", h.Sum())
	}
	snap := r.Snapshot()
	if len(snap) != 1 || len(snap[0].Series) != 1 {
		t.Fatalf("snapshot shape: %+v", snap)
	}
	buckets := snap[0].Series[0].Buckets
	wantCum := []uint64{1, 3, 4, 5} // cumulative: ≤0.1, ≤1, ≤10, +Inf
	if len(buckets) != len(wantCum) {
		t.Fatalf("bucket count = %d, want %d", len(buckets), len(wantCum))
	}
	for i, want := range wantCum {
		if buckets[i].Count != want {
			t.Fatalf("bucket %d cumulative = %d, want %d", i, buckets[i].Count, want)
		}
	}
	if !math.IsInf(buckets[len(buckets)-1].LE, 1) {
		t.Fatalf("last bucket bound = %v, want +Inf", buckets[len(buckets)-1].LE)
	}
}

func TestHistogramBoundaryIsInclusive(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", "", []float64{1}).With()
	h.Observe(1) // le="1" is inclusive
	if got := r.Snapshot()[0].Series[0].Buckets[0].Count; got != 1 {
		t.Fatalf("observation on the boundary fell through: %d", got)
	}
}

func TestReRegisterIdempotent(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("shared_total", "shared", "who")
	b := r.Counter("shared_total", "shared", "who")
	a.With("x").Inc()
	b.With("x").Inc()
	if got := a.With("x").Value(); got != 2 {
		t.Fatalf("re-registered family not shared: %v", got)
	}
}

func TestReRegisterMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m", "")
	for _, fn := range []func(){
		func() { r.Gauge("m", "") },
		func() { r.Counter("m", "", "extra") },
		func() { r.Counter("", "") },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("schema mismatch did not panic")
				}
			}()
			fn()
		}()
	}
}

func TestWrongLabelArityPanics(t *testing.T) {
	r := NewRegistry()
	v := r.Counter("m", "", "a", "b")
	defer func() {
		if recover() == nil {
			t.Fatal("wrong arity did not panic")
		}
	}()
	v.With("only-one")
}

func TestBadBucketsPanic(t *testing.T) {
	r := NewRegistry()
	defer func() {
		if recover() == nil {
			t.Fatal("non-increasing buckets did not panic")
		}
	}()
	r.Histogram("h", "", []float64{1, 1})
}

func TestExpBuckets(t *testing.T) {
	got := ExpBuckets(0.5, 2, 4)
	want := []float64{0.5, 1, 2, 4}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ExpBuckets = %v, want %v", got, want)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("bad ExpBuckets args did not panic")
		}
	}()
	ExpBuckets(0, 2, 3)
}

func TestDefaultBucketsUsedWhenNil(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", "", nil).With()
	h.Observe(0.01)
	buckets := r.Snapshot()[0].Series[0].Buckets
	if len(buckets) != len(DefBuckets)+1 {
		t.Fatalf("default buckets not applied: %d bounds", len(buckets))
	}
}

func TestPrometheusExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("hits_total", "cache hits", "layer").With("l\"1\nx\\").Add(3)
	r.Gauge("depth", "queue depth").With().Set(2)
	h := r.Histogram("wall_seconds", "latency", []float64{0.5, 5}).With()
	h.Observe(0.1)
	h.Observe(1)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# HELP hits_total cache hits\n",
		"# TYPE hits_total counter\n",
		`hits_total{layer="l\"1\nx\\"} 3` + "\n",
		"# TYPE depth gauge\ndepth 2\n",
		"# TYPE wall_seconds histogram\n",
		`wall_seconds_bucket{le="0.5"} 1` + "\n",
		`wall_seconds_bucket{le="5"} 2` + "\n",
		`wall_seconds_bucket{le="+Inf"} 2` + "\n",
		"wall_seconds_sum 1.1\n",
		"wall_seconds_count 2\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	// Families render sorted by name: depth before hits_total before wall.
	if strings.Index(out, "depth") > strings.Index(out, "hits_total") {
		t.Fatalf("families not sorted:\n%s", out)
	}
}

func TestPrometheusHistogramLELabelJoinsOthers(t *testing.T) {
	r := NewRegistry()
	r.Histogram("w", "", []float64{1}, "gov").With("DUFP").Observe(0.5)
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `w_bucket{gov="DUFP",le="1"} 1`) {
		t.Fatalf("le label not joined:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), `w_sum{gov="DUFP"}`) {
		t.Fatalf("sum label missing:\n%s", buf.String())
	}
}

func TestWriteJSONParses(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", "help a", "k").With("v").Inc()
	r.Histogram("h", "", []float64{1}).With().Observe(2)
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var snap []FamilySnapshot
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		t.Fatalf("JSON does not parse: %v\n%s", err, buf.String())
	}
	if len(snap) != 2 || snap[0].Name != "a_total" || snap[0].Series[0].Labels["k"] != "v" {
		t.Fatalf("unexpected snapshot: %+v", snap)
	}
}

func TestSnapshotDeterministicSeriesOrder(t *testing.T) {
	r := NewRegistry()
	v := r.Counter("e_total", "", "kind")
	v.With("zeta").Inc()
	v.With("alpha").Inc()
	snap := r.Snapshot()
	if snap[0].Series[0].Labels["kind"] != "alpha" {
		t.Fatalf("series not sorted: %+v", snap[0].Series)
	}
}

func TestConcurrentRecording(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("n_total", "").With()
	g := r.Gauge("g", "").With()
	h := r.Histogram("h", "", []float64{10}).With()
	v := r.Counter("lab_total", "", "who")

	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(i % 20))
				v.With("w").Inc()
			}
		}(w)
	}
	wg.Wait()
	if c.Value() != workers*per {
		t.Fatalf("counter lost updates: %v", c.Value())
	}
	if g.Value() != workers*per {
		t.Fatalf("gauge lost updates: %v", g.Value())
	}
	if h.Count() != workers*per {
		t.Fatalf("histogram lost updates: %d", h.Count())
	}
	if v.With("w").Value() != workers*per {
		t.Fatalf("labelled counter lost updates: %v", v.With("w").Value())
	}
}

// TestExpositionConcurrentWithWrites renders both expositions while
// writers hammer a histogram, including its exemplar slots, so the race
// detector (make tier1-obs) can see any snapshot torn against
// concurrent writers.
func TestExpositionConcurrentWithWrites(t *testing.T) {
	r := NewRegistry()
	hist := r.Histogram("conc_seconds", "Concurrency test histogram.",
		ExpBuckets(1e-4, 2, 8), "route").With("r")
	ctr := r.Counter("conc_total", "Concurrency test counter.").With()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				hist.ObserveExemplar(float64(i%7)*1e-3, fmt.Sprintf("run-%d-%d", w, i))
				ctr.Inc()
			}
		}(w)
	}
	for i := 0; i < 25; i++ {
		var buf bytes.Buffer
		if err := r.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		var fams []FamilySnapshot
		if err := json.Unmarshal(buf.Bytes(), &fams); err != nil {
			t.Fatalf("torn JSON snapshot: %v", err)
		}
		buf.Reset()
		if err := r.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(buf.String(), "conc_total") {
			t.Fatalf("text exposition under write load lacks conc_total:\n%s", buf.String())
		}
	}
	close(stop)
	wg.Wait()
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{KindCounter: "counter", KindGauge: "gauge", KindHistogram: "histogram"} {
		if k.String() != want {
			t.Fatalf("Kind(%d).String() = %q", int(k), k.String())
		}
	}
	if !strings.Contains(Kind(99).String(), "99") {
		t.Fatalf("unknown kind string: %q", Kind(99).String())
	}
}

func TestDefaultRegistryIsSingleton(t *testing.T) {
	if Default() != Default() {
		t.Fatal("Default() not a singleton")
	}
}

// TestEscapeLabelExpositionRules pins the label-value escaping to the
// exposition format's exact rule set: backslash, double quote and
// newline are escaped; everything else — tabs, carriage returns,
// non-ASCII UTF-8 — passes through raw. (The former %q-based rendering
// escaped tabs and control characters Go-style, which a format parser
// reads as literal backslash-t.)
func TestEscapeLabelExpositionRules(t *testing.T) {
	r := NewRegistry()
	r.Counter("esc_total", "", "v").With("caf\u00e9\tx\rß").Inc()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := "esc_total{v=\"caf\u00e9\tx\rß\"} 1\n"
	if !strings.Contains(b.String(), want) {
		t.Fatalf("exposition does not contain %q:\n%s", want, b.String())
	}

	for in, out := range map[string]string{
		`back\slash`: `back\\slash`,
		`qu"ote`:     `qu\"ote`,
		"new\nline":  `new\nline`,
		"plain":      "plain",
		"":           "",
	} {
		if got := escapeLabel(in); got != out {
			t.Errorf("escapeLabel(%q) = %q, want %q", in, got, out)
		}
	}
}

func TestHistogramExemplars(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "", []float64{0.1, 1}).With()
	h.Observe(0.05) // no exemplar
	h.ObserveExemplar(0.5, "run-a")
	h.ObserveExemplar(0.7, "run-b") // same bucket: last writer wins
	h.ObserveExemplar(5, "run-c")   // +Inf bucket

	snap := r.Snapshot()
	if len(snap) != 1 || len(snap[0].Series) != 1 {
		t.Fatalf("unexpected snapshot shape: %+v", snap)
	}
	bks := snap[0].Series[0].Buckets
	if len(bks) != 3 {
		t.Fatalf("got %d buckets, want 3", len(bks))
	}
	if bks[0].Exemplar != nil {
		t.Errorf("bucket 0 should have no exemplar, got %+v", bks[0].Exemplar)
	}
	if ex := bks[1].Exemplar; ex == nil || ex.ID != "run-b" || ex.Value != 0.7 {
		t.Errorf("bucket 1 exemplar = %+v, want run-b/0.7", ex)
	}
	if ex := bks[2].Exemplar; ex == nil || ex.ID != "run-c" {
		t.Errorf("+Inf bucket exemplar = %+v, want run-c", ex)
	}

	// Exemplars survive the JSON round-trip and stay out of the text
	// exposition (0.0.4 predates them).
	blob, err := json.Marshal(bks[1])
	if err != nil {
		t.Fatal(err)
	}
	var back BucketSnapshot
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if back.Exemplar == nil || back.Exemplar.ID != "run-b" {
		t.Errorf("exemplar lost in JSON round-trip: %+v", back.Exemplar)
	}
	var text strings.Builder
	if err := r.WritePrometheus(&text); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(text.String(), "run-b") {
		t.Error("exemplar leaked into the Prometheus text exposition")
	}

	// ObserveExemplar with an empty ID must behave exactly like Observe.
	before := bks[1].Count
	h.ObserveExemplar(0.6, "")
	bks = r.Snapshot()[0].Series[0].Buckets
	if bks[1].Count != before+1 || bks[1].Exemplar.ID != "run-b" {
		t.Errorf("empty-ID observation disturbed the exemplar: %+v", bks[1])
	}
}
