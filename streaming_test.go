package dufp_test

import (
	"context"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"dufp"
)

// collectSink is the simplest possible TraceSink: it appends every
// sample into per-socket slices.
type collectSink struct {
	series map[int][]dufp.TracePoint
}

func newCollectSink() *collectSink {
	return &collectSink{series: make(map[int][]dufp.TracePoint)}
}

func (c *collectSink) Consume(socket int, p dufp.TracePoint) {
	c.series[socket] = append(c.series[socket], p)
}

// randomSpec draws one run spec from the paper's protocol space.
func randomSpec(t *testing.T, rng *rand.Rand) dufp.RunSpec {
	t.Helper()
	apps := dufp.Suite()
	app := apps[rng.Intn(len(apps))]
	tols := []float64{0, 0.05, 0.10, 0.20}
	var gov dufp.Governor
	switch rng.Intn(3) {
	case 0:
		gov = dufp.Baseline()
	case 1:
		gov = dufp.DUF(dufp.DefaultControlConfig(tols[rng.Intn(len(tols))]))
	default:
		gov = dufp.DUFP(dufp.DefaultControlConfig(tols[rng.Intn(len(tols))]))
	}
	return dufp.RunSpec{App: app, Governor: gov, Idx: rng.Intn(3)}
}

// TestStreamingSinkMatchesRecorder is the sink-vs-record property: for
// random specs, a run observed through a streaming sink sees the exact
// sample sequence its record keeps — same sockets, same order,
// bit-identical points — and the run measurement itself is unchanged by
// observation.
func TestStreamingSinkMatchesRecorder(t *testing.T) {
	if testing.Short() {
		t.Skip("traced runs in -short mode")
	}
	ctx := context.Background()
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 4; i++ {
		spec := randomSpec(t, rng)
		session := dufp.NewSession()
		sink := newCollectSink()
		res, err := session.Run(ctx, spec, dufp.WithRecord(), dufp.WithTraceSink(sink))
		if err != nil {
			t.Fatal(err)
		}
		if res.Trace == nil {
			t.Fatal("WithRecord returned no trace")
		}
		if res.TraceSummary == nil {
			t.Fatal("observed run carries no TraceSummary")
		}

		// An unobserved run of the same spec is bit-identical: observers
		// are payload, not identity.
		plain, err := session.Run(ctx, spec)
		if err != nil {
			t.Fatal(err)
		}
		if plain.Run != res.Run {
			t.Fatalf("observation changed the measurement:\n%+v\n%+v", plain.Run, res.Run)
		}

		for s := 0; s < res.Trace.Sockets(); s++ {
			streamed := sink.series[s]
			j := 0
			for p := range res.Trace.Points(s) {
				if j >= len(streamed) {
					t.Fatalf("socket %d: record has more than the sink's %d points", s, len(streamed))
				}
				if streamed[j] != p {
					t.Fatalf("socket %d point %d: sink %+v vs record %+v", s, j, streamed[j], p)
				}
				j++
			}
			if j != len(streamed) {
				t.Fatalf("socket %d: sink saw %d points, record %d", s, len(streamed), j)
			}
			if j == 0 {
				t.Fatalf("socket %d: empty trace", s)
			}
		}

		// The record's own summary equals the streamed one.
		recSum := res.Trace.Summary()
		for s := range recSum.AvgCoreFreq {
			if recSum.AvgCoreFreq[s] != res.TraceSummary.AvgCoreFreq[s] ||
				recSum.AvgPkgPower[s] != res.TraceSummary.AvgPkgPower[s] {
				t.Fatalf("socket %d: replayed summary differs from streamed", s)
			}
		}
	}
}

// longApp builds a synthetic app of scale× a 2-second steady phase.
func longApp(t *testing.T, scale int) dufp.App {
	t.Helper()
	app := dufp.App{
		Name:        "LONG",
		Class:       "test",
		Description: "steady phase for memory-budget runs",
		Loops: []dufp.Loop{{
			Count: 1,
			Body: []dufp.PhaseShape{{
				Name:         "steady",
				FlopFrac:     0.2,
				MemFrac:      0.4,
				ComputeShare: 0.7,
				Overlap:      0.4,
				BWUncoreKnee: 2.0 * dufp.Gigahertz,
				Duration:     time.Duration(scale) * 2 * time.Second,
			}},
		}},
	}
	if err := app.Validate(); err != nil {
		t.Fatal(err)
	}
	return app
}

// TestStreamedLongRunMemoryBudget is the O(1) end-to-end check: a run
// 100× the usual benchmark duration, traced through a bounded reservoir,
// must fit a fixed live-heap budget — no term proportional to duration.
func TestStreamedLongRunMemoryBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("long traced run in -short mode")
	}
	ctx := context.Background()
	session := dufp.NewSession()
	rsv := dufp.NewTraceReservoir(0)

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := session.Run(ctx, dufp.RunSpec{App: longApp(t, 100), Governor: dufp.Baseline()}, dufp.WithTraceSink(rsv))
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)

	delta := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	// The reservoir itself is bounded (8192 points/socket); 16 MiB is an
	// order of magnitude above everything the streamed path retains, and
	// an order of magnitude below what a lossless record at this
	// duration would cost.
	const budget = 16 << 20
	if delta > budget {
		t.Fatalf("100x streamed run retained %d bytes, budget %d", delta, budget)
	}
	if res.TraceSummary == nil {
		t.Fatal("streamed run carries no TraceSummary")
	}
	if rsv.Seen(0) == 0 {
		t.Fatal("reservoir saw no samples")
	}
	if got, max := rsv.Len(0), 8192; got > max {
		t.Fatalf("reservoir holds %d points, capacity %d", got, max)
	}
}

// TestConcurrentReservoirConsumers reads a shared reservoir from
// several goroutines while runs stream into it — the facade-level race
// coverage over concurrent sink consumers (run under -race in CI).
func TestConcurrentReservoirConsumers(t *testing.T) {
	if testing.Short() {
		t.Skip("traced runs in -short mode")
	}
	ctx := context.Background()
	session := dufp.NewSession()
	app, err := dufp.AppNamed("EP")
	if err != nil {
		t.Fatal(err)
	}
	rsv := dufp.NewTraceReservoir(0)

	done := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				_ = rsv.Snapshot(0)
				_ = rsv.Summary()
				for range rsv.Points(0) {
					break
				}
			}
		}()
	}
	for i := 0; i < 3; i++ {
		if _, err := session.Run(ctx, dufp.RunSpec{App: app, Governor: dufp.Baseline(), Idx: i}, dufp.WithTraceSink(rsv)); err != nil {
			close(done)
			wg.Wait()
			t.Fatal(err)
		}
	}
	close(done)
	wg.Wait()
	if rsv.Seen(0) == 0 {
		t.Fatal("reservoir saw no samples")
	}
}
