package timeline

import (
	"bufio"
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"dufp/internal/control"
	"dufp/internal/sim"
	"dufp/internal/units"
)

func pt(at time.Duration, pkgW float64) sim.TracePoint {
	return sim.TracePoint{
		Time:       at,
		CoreFreq:   2.1 * units.Gigahertz,
		UncoreFreq: 1.9 * units.Gigahertz,
		PkgPower:   units.Power(pkgW),
		DramPower:  12 * units.Watt,
		CapPL1:     125 * units.Watt,
		CapPL2:     150 * units.Watt,
	}
}

func ev(at time.Duration, kind control.EventKind) control.Event {
	return control.Event{Time: at, Kind: kind, Cap: 110 * units.Watt, Uncore: 1.8 * units.Gigahertz}
}

func TestBuildJoinsNearestSample(t *testing.T) {
	points := []sim.TracePoint{pt(0, 100), pt(time.Second, 110), pt(2*time.Second, 120)}
	events := []control.Event{ev(1100*time.Millisecond, control.EventCapLower)}
	tl := Build(events, points)

	if len(tl.Entries) != 4 {
		t.Fatalf("entries = %d, want 4", len(tl.Entries))
	}
	decs := tl.Decisions()
	if len(decs) != 1 {
		t.Fatalf("decisions = %d, want 1", len(decs))
	}
	d := decs[0]
	if d.Decision != "cap-lower" || d.TargetCapW != 110 {
		t.Fatalf("decision entry wrong: %+v", d)
	}
	// 1.1 s is nearest the 1 s sample (110 W), not the 2 s one.
	if d.TraceTimeS != 1 || d.PkgW != 110 {
		t.Fatalf("joined wrong sample: %+v", d)
	}
}

func TestBuildOrdersAndBreaksTies(t *testing.T) {
	points := []sim.TracePoint{pt(time.Second, 100)}
	events := []control.Event{ev(time.Second, control.EventUncoreLower), ev(500*time.Millisecond, control.EventPhaseChange)}
	tl := Build(events, points)

	kinds := make([]string, len(tl.Entries))
	for i, e := range tl.Entries {
		kinds[i] = e.Kind
	}
	// 0.5 s decision, then at 1 s the sample precedes the decision.
	want := []string{KindDecision, KindSample, KindDecision}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("order = %v, want %v", kinds, want)
		}
	}
	if tl.Entries[0].Decision != "phase-change" {
		t.Fatalf("first entry = %+v", tl.Entries[0])
	}
}

func TestBuildEmptyInputs(t *testing.T) {
	if tl := Build(nil, nil); len(tl.Entries) != 0 {
		t.Fatalf("empty build has entries: %+v", tl.Entries)
	}
	// Decisions without any trace: zero context, but the decision survives.
	tl := Build([]control.Event{ev(time.Second, control.EventRule2)}, nil)
	if len(tl.Entries) != 1 || tl.Entries[0].TraceTimeS != 0 || tl.Entries[0].Decision != "rule-2" {
		t.Fatalf("trace-less decision: %+v", tl.Entries)
	}
	// Samples without decisions: pure trace stream.
	tl = Build(nil, []sim.TracePoint{pt(0, 90)})
	if len(tl.Entries) != 1 || tl.Entries[0].Kind != KindSample || tl.Entries[0].PkgW != 90 {
		t.Fatalf("decision-less trace: %+v", tl.Entries)
	}
}

func TestNearestEdges(t *testing.T) {
	points := []sim.TracePoint{pt(time.Second, 1), pt(3*time.Second, 3)}
	for _, tc := range []struct {
		at   time.Duration
		want float64
	}{
		{0, 1},                       // before the first point
		{10 * time.Second, 3},        // after the last
		{1900 * time.Millisecond, 1}, // closer to 1 s
		{2100 * time.Millisecond, 3}, // closer to 3 s
	} {
		p, ok := nearest(points, tc.at)
		if !ok || p.PkgPower.Watts() != tc.want {
			t.Fatalf("nearest(%v) = %v W, want %v", tc.at, p.PkgPower.Watts(), tc.want)
		}
	}
	if _, ok := nearest(nil, 0); ok {
		t.Fatal("nearest on empty series reported a point")
	}
}

func TestWriteJSONLRoundTrips(t *testing.T) {
	tl := Build(
		[]control.Event{ev(time.Second, control.EventCapLower)},
		[]sim.TracePoint{pt(0, 100), pt(time.Second, 105)},
	)
	var buf bytes.Buffer
	if err := tl.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	lines := 0
	for sc.Scan() {
		var e Entry
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("line %d does not parse: %v", lines, err)
		}
		lines++
	}
	if lines != len(tl.Entries) {
		t.Fatalf("JSONL lines = %d, want %d", lines, len(tl.Entries))
	}
}
