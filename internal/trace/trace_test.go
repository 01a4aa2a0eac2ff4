package trace

import (
	"math"
	"strings"
	"testing"
	"time"

	"dufp/internal/sim"
	"dufp/internal/units"
)

func points(n int) []sim.TracePoint {
	out := make([]sim.TracePoint, n)
	for i := range out {
		out[i] = sim.TracePoint{
			Time:       time.Duration(i) * 10 * time.Millisecond,
			CoreFreq:   units.Frequency(2.0e9 + float64(i%5)*1e8),
			UncoreFreq: 1.8 * units.Gigahertz,
			PkgPower:   units.Power(90 + float64(i%3)),
			DramPower:  20,
			CapPL1:     100,
			CapPL2:     100,
			Bandwidth:  40 * units.GBPerSecond,
		}
	}
	return out
}

func TestAverages(t *testing.T) {
	pts := points(100)
	avg := AvgCoreFreq(pts)
	if avg < 2.0*units.Gigahertz || avg > 2.4*units.Gigahertz {
		t.Fatalf("avg core = %v", avg)
	}
	if AvgCoreFreq(nil) != 0 {
		t.Fatal("empty series average not zero")
	}
	p := AvgPower(pts)
	if math.Abs(float64(p)-91) > 1 {
		t.Fatalf("avg power = %v, want ≈91", p)
	}
}

func TestWriteCSV(t *testing.T) {
	var b strings.Builder
	if err := WriteCSV(&b, points(3)); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("CSV has %d lines, want header+3", len(lines))
	}
	if !strings.HasPrefix(lines[0], "time_s,core_ghz,uncore_ghz") {
		t.Fatalf("header = %q", lines[0])
	}
	if !strings.Contains(lines[1], "2.00") {
		t.Fatalf("row = %q", lines[1])
	}
}

func TestWriteCSVEmptyAndSingle(t *testing.T) {
	var b strings.Builder
	if err := WriteCSV(&b, nil); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != 1 || !strings.HasPrefix(lines[0], "time_s,") {
		t.Fatalf("empty series CSV = %q, want header only", b.String())
	}
	wantCols := strings.Count(lines[0], ",") + 1

	b.Reset()
	if err := WriteCSV(&b, points(1)); err != nil {
		t.Fatal(err)
	}
	lines = strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("single-point CSV has %d lines, want header+1", len(lines))
	}
	if got := strings.Count(lines[1], ",") + 1; got != wantCols {
		t.Fatalf("row has %d columns, header has %d", got, wantCols)
	}
}

func TestDownsample(t *testing.T) {
	pts := points(100)
	down := Downsample(pts, 10)
	if len(down) < 10 || len(down) > 12 {
		t.Fatalf("downsampled to %d points", len(down))
	}
	if down[0].Time != pts[0].Time {
		t.Fatal("first point lost")
	}
	if down[len(down)-1].Time != pts[len(pts)-1].Time {
		t.Fatal("last point lost")
	}
	if got := Downsample(pts, 1); len(got) != len(pts) {
		t.Fatal("n=1 changed the series")
	}
	short := points(2)
	if got := Downsample(short, 10); len(got) != 2 {
		t.Fatal("short series truncated")
	}
}

func TestWindow(t *testing.T) {
	pts := points(100) // 0..990 ms
	w := Window(pts, 100*time.Millisecond, 200*time.Millisecond)
	if len(w) != 10 {
		t.Fatalf("window has %d points, want 10", len(w))
	}
	for _, p := range w {
		if p.Time < 100*time.Millisecond || p.Time >= 200*time.Millisecond {
			t.Fatalf("point at %v outside window", p.Time)
		}
	}
	if got := Window(pts, 5*time.Second, 6*time.Second); got != nil {
		t.Fatal("empty window returned points")
	}
}
