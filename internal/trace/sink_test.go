package trace

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dufp/internal/sim"
)

// feed streams a slice into a sink for one socket, in order.
func feed(s Sink, socket int, pts []sim.TracePoint) {
	for _, p := range pts {
		s.Consume(socket, p)
	}
}

func TestSummarizerBitIdenticalToSliceAverages(t *testing.T) {
	pts := points(1234)
	var sum Summarizer
	feed(&sum, 0, pts)
	if got, want := float64(sum.AvgCoreFreq(0)), float64(AvgCoreFreq(pts)); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("AvgCoreFreq: streaming %v != slice %v", got, want)
	}
	if got, want := float64(sum.AvgPower(0)), float64(AvgPower(pts)); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("AvgPower: streaming %v != slice %v", got, want)
	}
	if sum.Len(0) != len(pts) {
		t.Fatalf("Len = %d, want %d", sum.Len(0), len(pts))
	}
	s := sum.Summary()
	if s.Sockets() != 1 || s.Points[0] != len(pts) {
		t.Fatalf("Summary = %+v", s)
	}
	if math.Float64bits(float64(s.AvgPkgPower[0])) != math.Float64bits(float64(AvgPower(pts))) {
		t.Fatal("Summary.AvgPkgPower differs from slice average")
	}
}

func TestWindowStatsBitIdenticalToSliceWindow(t *testing.T) {
	pts := points(500)
	from, to := 500*time.Millisecond, 3*time.Second
	ws := NewWindowStats(from, to)
	feed(ws, 0, pts)
	want := AvgPower(Window(pts, from, to))
	if got := ws.AvgPower(0); math.Float64bits(float64(got)) != math.Float64bits(float64(want)) {
		t.Fatalf("window avg: streaming %v != slice %v", got, want)
	}
	if got, want := ws.Len(0), len(Window(pts, from, to)); got != want {
		t.Fatalf("window len = %d, want %d", got, want)
	}
	if ws.AvgPower(3) != 0 || ws.Len(-1) != 0 {
		t.Fatal("out-of-range socket not zero")
	}
}

func TestReservoirLosslessUnderCapacity(t *testing.T) {
	// Capacities below, at and above one storage block, and series that
	// end inside, at and just past a block edge.
	for _, tc := range []struct{ n, capacity int }{
		{100, 128},
		{reservoirBlock - 1, reservoirBlock},
		{reservoirBlock, reservoirBlock},
		{reservoirBlock + 1, 2 * reservoirBlock},
		{2*reservoirBlock + 1, 3*reservoirBlock - 7},
		{3*reservoirBlock - 7, 3*reservoirBlock - 7},
	} {
		pts := points(tc.n)
		r := NewReservoir(tc.capacity)
		feed(r, 0, pts)
		snap := r.Snapshot(0)
		if len(snap) != len(pts) || r.Len(0) != len(pts) {
			t.Fatalf("n=%d cap=%d: snapshot has %d points, Len %d, want %d (lossless)",
				tc.n, tc.capacity, len(snap), r.Len(0), len(pts))
		}
		for i := range pts {
			if snap[i] != pts[i] {
				t.Fatalf("n=%d cap=%d: point %d differs", tc.n, tc.capacity, i)
			}
		}
		if r.Stride(0) != 1 {
			t.Fatalf("n=%d cap=%d: stride = %d, want 1", tc.n, tc.capacity, r.Stride(0))
		}
		if r.Seen(0) != int64(len(pts)) {
			t.Fatalf("n=%d cap=%d: seen = %d", tc.n, tc.capacity, r.Seen(0))
		}
		// A page that straddles the first block edge copies the same
		// points as the snapshot holds there.
		from := min(reservoirBlock-2, len(snap))
		pg := r.Page(0, reservoirBlock-2, 5)
		want := snap[from:min(from+5, len(snap))]
		if pg.Total != len(snap) || pg.Offset != from || len(pg.Points) != len(want) {
			t.Fatalf("n=%d cap=%d: page total %d offset %d with %d points, want %d, %d, %d",
				tc.n, tc.capacity, pg.Total, pg.Offset, len(pg.Points), len(snap), from, len(want))
		}
		for i := range want {
			if pg.Points[i] != want[i] {
				t.Fatalf("n=%d cap=%d: page point %d differs", tc.n, tc.capacity, i)
			}
		}
	}
}

func TestReservoirCompactsDeterministically(t *testing.T) {
	// Capacities below, at and above one storage block, one that is not a
	// multiple of it, and a series length whose last compaction (at
	// 2·reservoirBlock+1 retained points) empties a one-point last block.
	for _, tc := range []struct{ n, capacity int }{
		{10000, 64},
		{10000, reservoirBlock},
		{10000, reservoirBlock + 1},
		{10000, 3*reservoirBlock - 7},
		{2*reservoirBlock + 1, 2 * reservoirBlock},
		{4*reservoirBlock + 3, 2 * reservoirBlock},
	} {
		pts := points(tc.n)
		r := NewReservoir(tc.capacity)
		feed(r, 0, pts)
		snap := r.Snapshot(0)
		if len(snap) > tc.capacity+1 { // capacity + trailing last sample
			t.Fatalf("n=%d cap=%d: snapshot has %d points, want ≤ %d", tc.n, tc.capacity, len(snap), tc.capacity+1)
		}
		stride := r.Stride(0)
		if stride&(stride-1) != 0 || stride < 2 {
			t.Fatalf("n=%d cap=%d: stride = %d, want power of two ≥ 2", tc.n, tc.capacity, stride)
		}
		// Every retained point sits on the stride grid, and the grid is
		// complete: the view is every stride-th sample plus the most
		// recent one when the grid skips it.
		want := onGrid(pts, stride)
		if len(snap) != len(want) || r.Len(0) != len(want) {
			t.Fatalf("n=%d cap=%d: snapshot has %d points, Len %d, want %d (stride %d)",
				tc.n, tc.capacity, len(snap), r.Len(0), len(want), stride)
		}
		for i := range want {
			if snap[i] != want[i] {
				t.Fatalf("n=%d cap=%d: point %d: got t=%v, want t=%v (stride %d)",
					tc.n, tc.capacity, i, snap[i].Time, want[i].Time, stride)
			}
		}
		// Determinism: same input, same view.
		r2 := NewReservoir(tc.capacity)
		feed(r2, 0, pts)
		snap2 := r2.Snapshot(0)
		if len(snap2) != len(snap) {
			t.Fatal("reservoir not deterministic")
		}
		for i := range snap {
			if snap[i] != snap2[i] {
				t.Fatal("reservoir not deterministic")
			}
		}
	}
}

// onGrid is the view a reservoir at the given stride keeps of pts:
// every stride-th sample, then the last one if the grid skipped it.
func onGrid(pts []sim.TracePoint, stride int) []sim.TracePoint {
	var out []sim.TracePoint
	for i := 0; i < len(pts); i += stride {
		out = append(out, pts[i])
	}
	if (len(pts)-1)%stride != 0 {
		out = append(out, pts[len(pts)-1])
	}
	return out
}

func TestReservoirSummaryExactDespiteDecimation(t *testing.T) {
	pts := points(5000)
	r := NewReservoir(32)
	feed(r, 0, pts)
	s := r.Summary()
	if s.Points[0] != len(pts) {
		t.Fatalf("summary counted %d points, want %d", s.Points[0], len(pts))
	}
	if math.Float64bits(float64(s.AvgPkgPower[0])) != math.Float64bits(float64(AvgPower(pts))) {
		t.Fatal("decimation leaked into the summary average")
	}
}

func TestReservoirConcurrentReaders(t *testing.T) {
	pts := points(4000)
	var cur atomic.Pointer[Reservoir]
	cur.Store(NewReservoir(64))
	var wg sync.WaitGroup
	stop := make(chan struct{})
	bad := make(chan string, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; ; k++ {
				select {
				case <-stop:
					return
				default:
				}
				r := cur.Load()
				r.Snapshot(0)
				r.Summary()
				for range r.Points(0) {
				}
				r.Stride(0)
				// A short page at the tail and the whole view: both end
				// on the most recent sample.
				msg := checkPage(r.Page(0, r.Len(0)-1-k%3, 3), 3, pts)
				if msg == "" {
					msg = checkPage(r.Page(0, 0, 0), 0, pts)
				}
				if msg != "" {
					select {
					case bad <- msg:
					default:
					}
					return
				}
			}
		}()
	}
	feed(cur.Load(), 0, pts)
	if got := cur.Load().Seen(0); got != int64(len(pts)) {
		t.Errorf("seen = %d, want %d", got, len(pts))
	}
	// A fresh two-point reservoir compacts on 2 of its first 5 samples,
	// each time halving a three-point view: a page whose seen or stride
	// is read apart from its points shows as a broken invariant or a
	// wrong point.
	for round := 0; round < 16000; round++ {
		r := NewReservoir(2)
		cur.Store(r)
		feed(r, 0, pts[:5])
	}
	close(stop)
	wg.Wait()
	close(bad)
	for msg := range bad {
		t.Error(msg)
	}
}

// checkPage checks one Page(0, offset, limit) read of a reservoir fed a
// prefix of pts on socket 0: its total follows from seen and stride, and
// its points are the view's points at its offset.
func checkPage(pg Page, limit int, pts []sim.TracePoint) string {
	if pg.Seen == 0 {
		if pg.Total != 0 || len(pg.Points) != 0 {
			return fmt.Sprintf("empty reservoir: page %+v", pg)
		}
		return ""
	}
	seen, stride := int(pg.Seen), pg.Stride
	want := (seen + stride - 1) / stride
	if (seen-1)%stride != 0 {
		want++
	}
	if pg.Total != want {
		return fmt.Sprintf("seen=%d stride=%d: total %d, want %d", seen, stride, pg.Total, want)
	}
	view := onGrid(pts[:seen], stride)
	want = len(view) - pg.Offset
	if limit > 0 {
		want = min(want, limit)
	}
	if len(pg.Points) != want {
		return fmt.Sprintf("seen=%d stride=%d offset=%d: %d points", seen, stride, pg.Offset, len(pg.Points))
	}
	for i, p := range pg.Points {
		if p != view[pg.Offset+i] {
			return fmt.Sprintf("seen=%d stride=%d: point %d differs", seen, stride, pg.Offset+i)
		}
	}
	return ""
}

func TestCSVSinkMatchesWriteCSV(t *testing.T) {
	pts := points(50)
	var want strings.Builder
	if err := WriteCSV(&want, pts); err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	c := NewCSVSink(&got, 1)
	for _, p := range pts {
		c.Consume(0, p) // other sockets are filtered out
		c.Consume(1, p)
	}
	if c.Err() != nil {
		t.Fatal(c.Err())
	}
	if got.String() != want.String() {
		t.Fatal("CSVSink output differs from WriteCSV")
	}
	if c.Count() != len(pts) {
		t.Fatalf("Count = %d, want %d", c.Count(), len(pts))
	}
}

func TestWriteCSVSeqMatchesWriteCSV(t *testing.T) {
	pts := points(80)
	r := NewReservoir(len(pts))
	feed(r, 0, pts)
	var want, got strings.Builder
	if err := WriteCSV(&want, pts); err != nil {
		t.Fatal(err)
	}
	if err := WriteCSVSeq(&got, r.Points(0)); err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Fatal("WriteCSVSeq output differs from WriteCSV")
	}
}

func TestTeeFansOutAndSkipsNil(t *testing.T) {
	var a, b Summarizer
	sink := Tee(nil, &a, nil, &b)
	feed(sink, 0, points(10))
	if a.Len(0) != 10 || b.Len(0) != 10 {
		t.Fatalf("tee delivered %d/%d samples", a.Len(0), b.Len(0))
	}
	// A single live sink comes back unwrapped.
	if got := Tee(nil, &a); got != &a {
		t.Fatal("Tee of one sink should return it directly")
	}
}

// TestReservoirGrowKeepsEmptySockets: Grow counts sockets that produced
// no sample in Sockets and Summary, with an empty view, and never
// shrinks the reservoir; iteration stops early on request and yields
// nothing for sockets out of range.
func TestReservoirGrowKeepsEmptySockets(t *testing.T) {
	pts := points(30)
	r := NewReservoir(0)
	feed(r, 0, pts)
	r.Grow(3)
	r.Grow(1)
	if r.Sockets() != 3 || r.Summary().Sockets() != 3 {
		t.Fatalf("sockets %d, summary sockets %d, want 3", r.Sockets(), r.Summary().Sockets())
	}
	if r.Len(2) != 0 || len(r.Snapshot(2)) != 0 || r.Summary().Points[2] != 0 {
		t.Fatal("a grown socket holds samples")
	}
	i := 0
	for p := range r.Points(0) {
		if p != pts[i] {
			t.Fatalf("point %d differs", i)
		}
		if i++; i == 5 {
			break
		}
	}
	if i != 5 {
		t.Fatal("early break failed")
	}
	for _, s := range []int{2, 3, -1} {
		for range r.Points(s) {
			t.Fatalf("socket %d yielded a point", s)
		}
	}
}

// TestDownsampledVsExactGolden pins that a reservoir view of a series
// and the exact series agree on their summary, and that the reservoir's
// retained points are a subset of the exact ones.
func TestDownsampledVsExactGolden(t *testing.T) {
	pts := points(3000)
	r := NewReservoir(100)
	feed(r, 0, pts)
	exact := map[time.Duration]sim.TracePoint{}
	for _, p := range pts {
		exact[p.Time] = p
	}
	for _, p := range r.Snapshot(0) {
		if exact[p.Time] != p {
			t.Fatalf("reservoir invented a point at t=%v", p.Time)
		}
	}
	if got, want := float64(r.Summary().AvgPkgPower[0]), float64(AvgPower(pts)); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatal("reservoir summary differs from exact average")
	}
}
