package dufp_test

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	"dufp"
)

// TestRunWithSpansFacade drives a governed run with the span flight
// recorder attached and checks the recorded decomposition: the wait,
// setup and sim stages are present, the per-stage self times sum to
// the root total exactly, one round is recorded per control period,
// and the Chrome trace-event export is valid JSON.
func TestRunWithSpansFacade(t *testing.T) {
	session := dufp.NewSession(dufp.WithExecutor(dufp.NewExecutor()))
	app, err := dufp.AppNamed("EP")
	if err != nil {
		t.Fatal(err)
	}
	gov := dufp.DUFP(dufp.DefaultControlConfig(0.10))
	res, err := session.Run(context.Background(), dufp.RunSpec{App: app, Governor: gov},
		dufp.WithRecord())
	if err != nil {
		t.Fatal(err)
	}
	if res.SpanTrace == nil || res.Spans == nil {
		t.Fatal("WithRecord returned no span artifacts")
	}
	if !res.SpanTrace.Done() {
		t.Error("facade-owned trace should be finished")
	}
	if res.Spans.RunID != session.RunID(dufp.RunSpec{App: app, Governor: gov}) {
		t.Errorf("span summary keyed %q, want the run's wire ID", res.Spans.RunID)
	}

	var stageSum int64
	seen := map[string]bool{}
	for _, st := range res.Spans.Stages {
		stageSum += st.NS
		seen[st.Stage] = true
	}
	if stageSum != res.Spans.TotalNS {
		t.Errorf("stage self times sum to %d ns, total is %d ns", stageSum, res.Spans.TotalNS)
	}
	for _, want := range []string{"run", "wait", "setup", "sim"} {
		if !seen[want] {
			t.Errorf("stage %q missing from %v", want, res.Spans.Stages)
		}
	}
	if res.Spans.Rounds == 0 {
		t.Error("governed run recorded no control rounds")
	}
	if got := len(res.SpanTrace.Rounds()); got != res.Spans.Rounds {
		t.Errorf("trace holds %d rounds, summary says %d", got, res.Spans.Rounds)
	}
	for _, r := range res.SpanTrace.Rounds() {
		if r.CapW <= 0 || r.UncoreHz <= 0 {
			t.Fatalf("round missing operating point: %+v", r)
		}
	}

	var buf bytes.Buffer
	if err := res.SpanTrace.WriteTraceEvents(&buf); err != nil {
		t.Fatal(err)
	}
	var f struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatalf("trace export is not valid JSON: %v", err)
	}
	if len(f.TraceEvents) < 4+res.Spans.Rounds {
		t.Errorf("export has %d events for %d rounds", len(f.TraceEvents), res.Spans.Rounds)
	}

	// Span-traced runs are sideband: a second request recomputes rather
	// than serving the first run's summary from the memo cache.
	res2, err := session.Run(context.Background(), dufp.RunSpec{App: app, Governor: gov},
		dufp.WithRecord())
	if err != nil {
		t.Fatal(err)
	}
	if res2.SpanTrace == res.SpanTrace {
		t.Error("span trace was cached across runs")
	}
	if res2.Run != res.Run {
		t.Errorf("span-traced reruns must stay bit-identical:\n%+v\n%+v", res.Run, res2.Run)
	}
}

// TestRunResultSpansWire pins the optional spans field of wire v1.
func TestRunResultSpansWire(t *testing.T) {
	session := dufp.NewSession(dufp.WithExecutor(dufp.NewExecutor()))
	app, err := dufp.AppNamed("EP")
	if err != nil {
		t.Fatal(err)
	}
	res, err := session.Run(context.Background(),
		dufp.RunSpec{App: app, Governor: dufp.DUF(dufp.DefaultControlConfig(0.05))},
		dufp.WithRecord())
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{`"spans"`, `"total_ns"`, `"stages"`, `"stage"`, `"rounds"`, `"round_ns"`} {
		if !strings.Contains(string(b), field) {
			t.Errorf("spans wire form lost field %s:\n%s", field, b)
		}
	}
	var back dufp.RunResult
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.Spans == nil {
		t.Fatal("spans summary lost over the wire")
	}
	if back.Spans.TotalNS != res.Spans.TotalNS || len(back.Spans.Stages) != len(res.Spans.Stages) ||
		back.Spans.Rounds != res.Spans.Rounds || back.Spans.RunID != res.Spans.RunID {
		t.Errorf("spans summary changed over the wire:\n%+v\n%+v", res.Spans, back.Spans)
	}
	if back.SpanTrace != nil {
		t.Error("the full span tree must not cross the wire")
	}

	// A result without spans keeps the field off the wire entirely.
	plain, err := session.Run(context.Background(),
		dufp.RunSpec{App: app, Governor: dufp.Baseline()})
	if err != nil {
		t.Fatal(err)
	}
	pb, err := json.Marshal(plain)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(pb), `"spans"`) {
		t.Error("unrequested spans field leaked onto the wire")
	}
}
