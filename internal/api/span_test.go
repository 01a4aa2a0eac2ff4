package api

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"dufp"
	"dufp/internal/obs/span"
)

// sseEvent is one parsed server-sent event.
type sseEvent struct {
	event string
	data  string
}

// parseSSE splits an SSE stream into its events, ignoring comments
// (heartbeats) and blank separators.
func parseSSE(t *testing.T, body string) []sseEvent {
	t.Helper()
	var out []sseEvent
	var cur sseEvent
	sc := bufio.NewScanner(strings.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			cur.event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.data = strings.TrimPrefix(line, "data: ")
		case line == "":
			if cur.event != "" || cur.data != "" {
				out = append(out, cur)
				cur = sseEvent{}
			}
		}
	}
	return out
}

// TestDaemonSpanTreeAndTraceEndpoint drives one governed run through a
// daemon with a disk cache and checks the acceptance criteria of the
// flight recorder: the span tree covers queue → dispatch → cache →
// wait → setup → sim → serialize, the per-stage self times sum to the
// root total exactly (well inside the 5%-of-wall-clock budget), the
// root total is bounded by the externally measured wall clock, and the
// trace endpoint serves both Chrome trace-event JSON and the summary.
func TestDaemonSpanTreeAndTraceEndpoint(t *testing.T) {
	cfg := testConfig()
	cfg.Executor = dufp.NewExecutor(dufp.ExecDiskCache(t.TempDir()))
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	defer cfg.Executor.Close()
	ts := httptest.NewServer(d.FullHandler())
	defer ts.Close()

	spec := dufp.RunSpec{App: mustApp(t, "EP"), Governor: dufp.DUFP(dufp.DefaultControlConfig(0.10))}
	start := time.Now()
	status, err := d.SubmitRun(spec)
	if err != nil {
		t.Fatal(err)
	}
	if final := waitRun(t, d, status.ID); final.State != StateDone {
		t.Fatalf("final = %+v", final)
	}
	wall := time.Since(start)

	tr, ok := d.Spans().Get(status.ID)
	if !ok {
		t.Fatalf("no trace recorded for run %s", status.ID)
	}
	if !tr.Done() {
		t.Error("recorded trace is not finished")
	}
	sum := tr.Summary()
	if sum.RunID != status.ID {
		t.Errorf("summary keyed %q, want %q", sum.RunID, status.ID)
	}
	var stageSum int64
	seen := map[string]bool{}
	for _, st := range sum.Stages {
		stageSum += st.NS
		seen[st.Stage] = true
	}
	if stageSum != sum.TotalNS {
		t.Errorf("stage self times sum to %d ns, total is %d ns", stageSum, sum.TotalNS)
	}
	for _, stage := range []string{
		span.RootStage, span.StageQueue, span.StageDispatch, span.StageCache,
		span.StageWait, span.StageSetup, span.StageSim, span.StageSerialize,
	} {
		if !seen[stage] {
			t.Errorf("stage %q missing from %+v", stage, sum.Stages)
		}
	}
	if sum.TotalNS <= 0 || time.Duration(sum.TotalNS) > wall {
		t.Errorf("trace total %v outside (0, measured wall %v]", time.Duration(sum.TotalNS), wall)
	}
	if sum.Rounds == 0 {
		t.Error("governed run recorded no control rounds")
	}

	// Default format: Chrome trace-event JSON, loadable in Perfetto.
	resp, err := http.Get(ts.URL + "/v1/runs/" + status.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	var tf struct {
		TraceEvents []map[string]any `json:"traceEvents"`
		Unit        string           `json:"displayTimeUnit"`
	}
	err = json.NewDecoder(resp.Body).Decode(&tf)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || err != nil {
		t.Fatalf("trace endpoint: %d, %v", resp.StatusCode, err)
	}
	if tf.Unit != "ms" || len(tf.TraceEvents) == 0 {
		t.Fatalf("trace export: unit %q, %d events", tf.Unit, len(tf.TraceEvents))
	}
	names := map[string]bool{}
	for _, ev := range tf.TraceEvents {
		for _, key := range []string{"ph", "pid", "name"} {
			if _, ok := ev[key]; !ok {
				t.Fatalf("trace event missing %q: %v", key, ev)
			}
		}
		names[ev["name"].(string)] = true
	}
	for _, want := range []string{span.RootStage, span.StageSim, "round"} {
		if !names[want] {
			t.Errorf("trace export missing %q events", want)
		}
	}

	// ?format=summary returns the wire-shaped stage decomposition.
	resp, err = http.Get(ts.URL + "/v1/runs/" + status.ID + "/trace?format=summary")
	if err != nil {
		t.Fatal(err)
	}
	var got span.Summary
	err = json.NewDecoder(resp.Body).Decode(&got)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || err != nil {
		t.Fatalf("summary format: %d, %v", resp.StatusCode, err)
	}
	if got.TotalNS != sum.TotalNS || got.Rounds != sum.Rounds || len(got.Stages) != len(sum.Stages) {
		t.Errorf("summary over HTTP differs:\n%+v\n%+v", got, sum)
	}

	// Unknown runs are a 404, not an empty trace.
	resp, err = http.Get(ts.URL + "/v1/runs/nope/trace")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown run trace: %d", resp.StatusCode)
	}
}

// TestSlowRunLogAndCounter sets an absurd slow-run budget so every run
// is over it, and checks that the full span tree reaches the log and
// the api_slow_runs_total counter moves.
func TestSlowRunLogAndCounter(t *testing.T) {
	var mu sync.Mutex
	var logs []string
	cfg := testConfig()
	cfg.SpanSlowThreshold = time.Nanosecond
	cfg.Logf = func(format string, args ...any) {
		mu.Lock()
		logs = append(logs, fmt.Sprintf(format, args...))
		mu.Unlock()
	}
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	spec := dufp.RunSpec{App: mustApp(t, "EP"), Governor: dufp.DUFP(dufp.DefaultControlConfig(0.10))}
	status, err := d.SubmitRun(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitRun(t, d, status.ID)

	if v := d.records.slowRuns.Value(); v < 1 {
		t.Errorf("api_slow_runs_total = %v, want >= 1", v)
	}
	mu.Lock()
	joined := strings.Join(logs, "\n")
	mu.Unlock()
	if !strings.Contains(joined, "trace "+status.ID) {
		t.Errorf("slow-run log lacks the rendered span tree:\n%s", joined)
	}
}

// TestSSEDropSafeFinalStatus pins the drop-safety contract of the SSE
// stream directly: when a slow consumer's subscription overflowed and
// closed holding only a stale snapshot, the handler re-fetches the
// authoritative status so the stream still ends on the terminal state.
func TestSSEDropSafeFinalStatus(t *testing.T) {
	ch := make(chan RunStatus, 1)
	ch <- RunStatus{ID: "r1", State: StateRunning} // stale: terminal snapshot was dropped
	close(ch)
	run := dufp.Run{App: "EP"}
	authoritative := RunStatus{ID: "r1", State: StateDone, Run: &run}

	rec := httptest.NewRecorder()
	req := httptest.NewRequest("GET", "/v1/runs/r1/events", nil)
	serveSSE(rec, req, ch, func() (RunStatus, bool) { return authoritative, true },
		func(s RunStatus) bool { return terminal(s.State) })

	events := parseSSE(t, rec.Body.String())
	if len(events) < 3 {
		t.Fatalf("stream = %q", rec.Body.String())
	}
	if last := events[len(events)-1]; last.event != "end" {
		t.Errorf("stream did not end with an end event: %+v", last)
	}
	var final RunStatus
	if err := json.Unmarshal([]byte(events[len(events)-2].data), &final); err != nil {
		t.Fatal(err)
	}
	if final.State != StateDone || final.Run == nil {
		t.Errorf("final status before end = %+v, want the authoritative terminal one", final)
	}
}

// TestSSESlowConsumerCampaign streams a whole campaign over HTTP with a
// deliberately slow reader and checks the end-to-end guarantee: no
// matter what was dropped along the way, the last status event is
// terminal and complete.
func TestSSESlowConsumerCampaign(t *testing.T) {
	d, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	ts := httptest.NewServer(d.FullHandler())
	defer ts.Close()

	spec := CampaignSpec{
		V:          dufp.WireVersion,
		Kind:       KindGrid,
		Apps:       []string{"EP"},
		Tolerances: []float64{0.10},
		Runs:       2,
	}
	status, err := d.SubmitCampaign(spec)
	if err != nil {
		t.Fatal(err)
	}
	if status.Total != 6 {
		t.Fatalf("total = %d, want 6", status.Total)
	}

	resp, err := http.Get(ts.URL + "/v1/campaigns/" + status.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(resp.Header.Get("Content-Type"), "text/event-stream") {
		t.Fatalf("stream: %d %q", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	var lines []string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		lines = append(lines, sc.Text())
		time.Sleep(5 * time.Millisecond) // slow consumer
	}
	events := parseSSE(t, strings.Join(lines, "\n")+"\n")
	if len(events) == 0 || events[len(events)-1].event != "end" {
		t.Fatalf("stream did not terminate cleanly: %+v", events)
	}
	var final CampaignStatus
	if err := json.Unmarshal([]byte(events[len(events)-2].data), &final); err != nil {
		t.Fatal(err)
	}
	if final.State != StateDone || final.Done != 6 || final.Failed != 0 {
		t.Errorf("final campaign status = %+v", final)
	}
}
