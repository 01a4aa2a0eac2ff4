package api

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"dufp"
)

// waitCampaign drains a campaign's subscription until it closes.
func waitCampaign(t *testing.T, d *Daemon, id string) {
	t.Helper()
	ch, cancel, ok := d.SubscribeCampaign(id)
	if !ok {
		t.Fatalf("campaign %s unknown", id)
	}
	defer cancel()
	deadline := time.After(120 * time.Second)
	for {
		select {
		case _, open := <-ch:
			if !open {
				return
			}
		case <-deadline:
			t.Fatalf("campaign %s not terminal", id)
		}
	}
}

// TestFullHandlerRoutes is the route table of the daemon's one handler:
// every route with a known ID and an unknown one, every input route
// with a malformed body or query, and the paths that are not routes.
// Each row asserts the status code and Content-Type; a 4xx carries a
// JSON error body, a whole body carries its Content-Length, and an event
// stream sends exactly one terminal status, done, right before its end.
//
// Four kinds of run ID are known: one this daemon dispatched (trace and
// samples retained), one it dispatched before its record store of two
// filled up (status and events only), one a previous daemon completed
// on the same disk cache (status and events only), and one nobody ran.
func TestFullHandlerRoutes(t *testing.T) {
	cacheDir := t.TempDir()
	diskCfg := testConfig()
	diskCfg.Executor = dufp.NewExecutor(dufp.ExecDiskCache(cacheDir))
	prev, err := New(diskCfg)
	if err != nil {
		t.Fatal(err)
	}
	// Idx 1 keeps it out of the campaign below, which would track it.
	diskRun := waitRun(t, prev, submit(t, prev, dufp.RunSpec{App: mustApp(t, "EP"), Governor: dufp.Baseline(), Idx: 1}))
	prev.Close()
	if err := diskCfg.Executor.Close(); err != nil {
		t.Fatal(err)
	}

	cfg := testConfig()
	cfg.Executor = dufp.NewExecutor(dufp.ExecDiskCache(cacheDir))
	cfg.SampleCapacity = 2
	defer cfg.Executor.Close()
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	// The run and the campaign's one new run evict this one's record.
	evicted := waitRun(t, d, submit(t, d, dufp.RunSpec{App: mustApp(t, "EP"), Governor: dufp.Baseline(), Idx: 2}))
	spec := dufp.RunSpec{App: mustApp(t, "EP"), Governor: dufp.DUFP(dufp.DefaultControlConfig(0.10))}
	run := waitRun(t, d, submit(t, d, spec))
	camp := CampaignSpec{V: dufp.WireVersion, Kind: KindSweep, Apps: []string{"EP"}, Tolerances: []float64{0.10}, Runs: 1}
	cs, err := d.SubmitCampaign(camp)
	if err != nil {
		t.Fatal(err)
	}
	waitCampaign(t, d, cs.ID)
	if run.State != StateDone || evicted.State != StateDone || diskRun.State != StateDone {
		t.Fatalf("setup runs: %s, %s, %s", run.State, evicted.State, diskRun.State)
	}
	specBody, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	campBody, err := json.Marshal(camp)
	if err != nil {
		t.Fatal(err)
	}

	ts := httptest.NewServer(d.FullHandler())
	defer ts.Close()

	const (
		typeJSON   = "application/json"
		typeSSE    = "text/event-stream"
		typeNDJSON = "application/x-ndjson"
		typeProm   = "text/plain; version=0.0.4; charset=utf-8"
		typeText   = "text/plain; charset=utf-8"
		unknown    = "0123456789abcdef"
	)
	runs, camps := "/v1/runs/", "/v1/campaigns/"
	tests := []struct {
		name   string
		method string
		path   string
		body   string
		code   int
		ctype  string
		stream bool // a stream has no Content-Length and ends with its terminal event
	}{
		{"healthz", "GET", "/v1/healthz", "", 200, typeJSON, false},

		{"submit run known", "POST", "/v1/runs", string(specBody), 200, typeJSON, false},
		{"submit run empty spec", "POST", "/v1/runs", "{}", 400, typeJSON, false},
		{"list runs", "GET", "/v1/runs", "", 200, typeJSON, false},

		{"run known", "GET", runs + run.ID, "", 200, typeJSON, false},
		{"run known with trace", "GET", runs + run.ID + "?include=trace", "", 200, typeJSON, false},
		{"run evicted", "GET", runs + evicted.ID, "", 200, typeJSON, false},
		{"run evicted with trace", "GET", runs + evicted.ID + "?include=trace", "", 200, typeJSON, false},
		{"run disk-only", "GET", runs + diskRun.ID, "", 200, typeJSON, false},
		{"run unknown", "GET", runs + unknown, "", 404, typeJSON, false},

		{"run events known", "GET", runs + run.ID + "/events", "", 200, typeSSE, true},
		{"run events evicted", "GET", runs + evicted.ID + "/events", "", 200, typeSSE, true},
		{"run events disk-only", "GET", runs + diskRun.ID + "/events", "", 200, typeSSE, true},
		{"run events unknown", "GET", runs + unknown + "/events", "", 404, typeJSON, false},

		{"run trace known", "GET", runs + run.ID + "/trace", "", 200, typeJSON, false},
		{"run trace summary", "GET", runs + run.ID + "/trace?format=summary", "", 200, typeJSON, false},
		{"run trace evicted", "GET", runs + evicted.ID + "/trace", "", 404, typeJSON, false},
		{"run trace disk-only", "GET", runs + diskRun.ID + "/trace", "", 404, typeJSON, false},
		{"run trace unknown", "GET", runs + unknown + "/trace", "", 404, typeJSON, false},

		{"run samples known", "GET", runs + run.ID + "/samples", "", 200, typeJSON, false},
		{"run samples ndjson", "GET", runs + run.ID + "/samples?format=ndjson", "", 200, typeNDJSON, true},
		{"run samples bad socket", "GET", runs + run.ID + "/samples?socket=x", "", 400, typeJSON, false},
		{"run samples bad offset", "GET", runs + run.ID + "/samples?offset=-1", "", 400, typeJSON, false},
		{"run samples bad limit", "GET", runs + run.ID + "/samples?limit=seven", "", 400, typeJSON, false},
		{"run samples evicted", "GET", runs + evicted.ID + "/samples", "", 404, typeJSON, false},
		{"run samples disk-only", "GET", runs + diskRun.ID + "/samples", "", 404, typeJSON, false},
		{"run samples unknown", "GET", runs + unknown + "/samples", "", 404, typeJSON, false},

		{"submit campaign known", "POST", "/v1/campaigns", string(campBody), 200, typeJSON, false},
		{"submit campaign empty spec", "POST", "/v1/campaigns", "{}", 400, typeJSON, false},
		{"list campaigns", "GET", "/v1/campaigns", "", 200, typeJSON, false},
		{"campaign known", "GET", camps + cs.ID, "", 200, typeJSON, false},
		{"campaign unknown", "GET", camps + unknown, "", 404, typeJSON, false},
		{"campaign events known", "GET", camps + cs.ID + "/events", "", 200, typeSSE, true},
		{"campaign events unknown", "GET", camps + unknown + "/events", "", 404, typeJSON, false},

		{"metrics", "GET", "/metrics", "", 200, typeProm, false},
		{"metrics json", "GET", "/metrics.json", "", 200, typeJSON, false},
		{"pprof cmdline", "GET", "/debug/pprof/cmdline", "", 200, typeText, false},

		{"root", "GET", "/", "", 404, typeJSON, false},
		{"executor state", "GET", "/runs", "", 404, typeJSON, false},
		{"timeline list", "GET", "/timeline/", "", 404, typeJSON, false},
		{"timeline", "GET", "/timeline/fig5-dufp", "", 404, typeJSON, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			req, err := http.NewRequest(tt.method, ts.URL+tt.path, strings.NewReader(tt.body))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != tt.code {
				t.Errorf("status %d, want %d: %.200s", resp.StatusCode, tt.code, body)
			}
			if got := resp.Header.Get("Content-Type"); got != tt.ctype {
				t.Errorf("Content-Type %q, want %q", got, tt.ctype)
			}
			if tt.code >= 400 && tt.code < 500 {
				var e errorBody
				if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
					t.Errorf("4xx body is not a JSON error (%v): %.200s", err, body)
				}
			}
			cl := resp.Header.Get("Content-Length")
			switch {
			case tt.stream && cl != "":
				t.Errorf("stream carries Content-Length %s", cl)
			case tt.stream && tt.ctype == typeSSE:
				if err := endsOnOneDone(t, string(body)); err != nil {
					t.Errorf("event stream %v: %.300s", err, body)
				}
			case !tt.stream && cl != strconv.Itoa(len(body)):
				t.Errorf("Content-Length %q, body %d bytes", cl, len(body))
			}
		})
	}
}

// endsOnOneDone checks an SSE body: its last event is end, the one
// before it a done status, and no other status is terminal.
func endsOnOneDone(t *testing.T, body string) error {
	events := parseSSE(t, body)
	n := len(events)
	if n < 2 || events[n-1] != (sseEvent{event: "end", data: "{}"}) {
		return fmt.Errorf("does not end with an end event")
	}
	terminals := 0
	for i, ev := range events[:n-1] {
		if ev.event != "status" {
			continue
		}
		var st struct {
			State string `json:"state"`
		}
		if err := json.Unmarshal([]byte(ev.data), &st); err != nil {
			return fmt.Errorf("status %d: %v", i, err)
		}
		if terminal(st.State) {
			terminals++
		}
		if i == n-2 && st.State != StateDone {
			return fmt.Errorf("ends on state %q, want %q", st.State, StateDone)
		}
	}
	if events[n-2].event != "status" || terminals != 1 {
		return fmt.Errorf("sends %d terminal statuses before end, want exactly one right before it", terminals)
	}
	return nil
}

// submit accepts a run on d and returns its ID.
func submit(t *testing.T, d *Daemon, spec dufp.RunSpec) string {
	t.Helper()
	status, err := d.SubmitRun(spec)
	if err != nil {
		t.Fatal(err)
	}
	return status.ID
}
