package span

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestNestingAndSelfTimeSum(t *testing.T) {
	tr := New("r1")
	q := tr.Start(StageQueue)
	time.Sleep(2 * time.Millisecond)
	q.End()
	d := tr.Start(StageDispatch)
	c := tr.Start(StageCache)
	time.Sleep(time.Millisecond)
	c.End()
	s := tr.Start(StageSim)
	time.Sleep(3 * time.Millisecond)
	s.End()
	d.End()
	tr.Finish()

	spans := tr.Spans()
	if len(spans) != 5 {
		t.Fatalf("got %d spans, want 5", len(spans))
	}
	byName := map[string]Span{}
	for _, sp := range spans {
		byName[sp.Name] = sp
	}
	if byName[StageCache].Parent != 2 || spans[2].Name != StageDispatch {
		t.Errorf("cache should nest under dispatch: parent=%d", byName[StageCache].Parent)
	}
	if byName[StageQueue].Parent != 0 {
		t.Errorf("queue should nest under root, got parent %d", byName[StageQueue].Parent)
	}

	sum := tr.Summary()
	if sum.RunID != "r1" {
		t.Errorf("summary run id = %q", sum.RunID)
	}
	var stageSum int64
	for _, st := range sum.Stages {
		if st.NS < 0 {
			t.Errorf("stage %s has negative self time %d", st.Stage, st.NS)
		}
		stageSum += st.NS
	}
	// Self times sum to the root total exactly by construction.
	if stageSum != sum.TotalNS {
		t.Errorf("stage self times sum to %d, total is %d", stageSum, sum.TotalNS)
	}
	if sum.TotalNS < (6 * time.Millisecond).Nanoseconds() {
		t.Errorf("total %d ns is shorter than the slept 6 ms", sum.TotalNS)
	}
	if got := sum.Stage(StageSim); got < 3*time.Millisecond {
		t.Errorf("sim self time %v < slept 3 ms", got)
	}
}

func TestNilTraceIsNoOp(t *testing.T) {
	var tr *Trace
	h := tr.Start("x")
	h.End()
	tr.AddRound(Round{})
	tr.AddEvent("e", 0, "")
	tr.Finish()
	if tr.Total() != 0 || tr.Done() || tr.Now() != 0 {
		t.Error("nil trace accessors should return zeros")
	}
	if tr.Spans() != nil || tr.Rounds() != nil || tr.Events() != nil {
		t.Error("nil trace slices should be nil")
	}
	if s := tr.Summary(); s.TotalNS != 0 || len(s.Stages) != 0 {
		t.Errorf("nil trace summary = %+v", s)
	}
	if tr.Render() != "" {
		t.Error("nil trace render should be empty")
	}
	var buf bytes.Buffer
	if err := tr.WriteTraceEvents(&buf); err != nil {
		t.Fatalf("nil trace export: %v", err)
	}
	var f struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatalf("nil trace export is not valid JSON: %v", err)
	}
}

func TestContextRoundTrip(t *testing.T) {
	if FromContext(context.Background()) != nil {
		t.Error("empty context should carry no trace")
	}
	tr := New("r2")
	ctx := NewContext(context.Background(), tr)
	if FromContext(ctx) != tr {
		t.Error("trace did not round-trip through context")
	}
	if NewContext(context.Background(), nil) != context.Background() {
		t.Error("attaching a nil trace should return ctx unchanged")
	}
}

func TestFinishClosesOpenSpans(t *testing.T) {
	tr := New("r3")
	tr.Start(StageDispatch) // never ended
	tr.Finish()
	for _, sp := range tr.Spans() {
		if sp.End < 0 {
			t.Errorf("span %s still open after Finish", sp.Name)
		}
	}
	total := tr.Total()
	tr.Finish() // idempotent
	if tr.Total() != total {
		t.Error("second Finish changed the total")
	}
}

// TestTraceEventFormat validates the export against the Chrome
// trace-event format Perfetto consumes: a traceEvents array whose
// entries carry name/ph/ts/pid/tid, "X" events with a non-negative
// dur, and rounds/instants on the second track.
func TestTraceEventFormat(t *testing.T) {
	tr := New("fmt")
	h := tr.Start(StageSim)
	tr.AddRound(Round{Start: tr.Now(), End: tr.Now() + time.Microsecond,
		Sim: 200 * time.Millisecond, Phase: 1, OI: 3.5, CapW: 120, UncoreHz: 2.4e9})
	tr.AddEvent("rule-2", tr.Now(), "cap step")
	h.End()
	tr.Finish()

	var buf bytes.Buffer
	if err := tr.WriteTraceEvents(&buf); err != nil {
		t.Fatalf("export: %v", err)
	}
	var f struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			TS   *float64       `json:"ts"`
			Dur  *float64       `json:"dur"`
			PID  *int           `json:"pid"`
			TID  *int           `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if f.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q", f.DisplayTimeUnit)
	}
	var sawRoot, sawRound, sawInstant bool
	for _, ev := range f.TraceEvents {
		if ev.Name == "" || ev.Ph == "" || ev.TS == nil || ev.PID == nil || ev.TID == nil {
			t.Fatalf("event missing required fields: %+v", ev)
		}
		switch ev.Ph {
		case "X":
			if ev.Dur == nil || *ev.Dur < 0 || *ev.TS < 0 {
				t.Errorf("X event %q needs non-negative ts/dur: %+v", ev.Name, ev)
			}
			if ev.Name == RootStage {
				sawRoot = true
			}
			if ev.Name == "round" {
				sawRound = true
				if ev.Args["oi"].(float64) != 3.5 || ev.Args["phase"].(float64) != 1 {
					t.Errorf("round args = %v", ev.Args)
				}
			}
		case "i":
			sawInstant = true
		case "M":
		default:
			t.Errorf("unexpected phase %q", ev.Ph)
		}
	}
	if !sawRoot || !sawRound || !sawInstant {
		t.Errorf("missing events: root=%v round=%v instant=%v", sawRoot, sawRound, sawInstant)
	}
}

func TestSummaryOfUnfinishedTrace(t *testing.T) {
	tr := New("open")
	tr.Start(StageSim)
	time.Sleep(time.Millisecond)
	sum := tr.Summary()
	if sum.TotalNS <= 0 {
		t.Errorf("unfinished total = %d", sum.TotalNS)
	}
	var stages int64
	for _, st := range sum.Stages {
		stages += st.NS
	}
	if stages != sum.TotalNS {
		t.Errorf("unfinished stage sum %d != total %d", stages, sum.TotalNS)
	}
}

func TestRenderTree(t *testing.T) {
	tr := New("render")
	h := tr.Start(StageDispatch)
	tr.Start(StageSim).End()
	h.End()
	tr.AddRound(Round{})
	tr.Finish()
	out := tr.Render()
	for _, want := range []string{"trace render", RootStage, StageDispatch, StageSim, "1 control rounds"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	// sim is two levels below the root: root indent 1, dispatch 2, sim 3.
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, StageSim) {
			if !strings.HasPrefix(line, strings.Repeat("  ", 3)) {
				t.Errorf("sim line not indented three levels: %q", line)
			}
		}
	}
}
