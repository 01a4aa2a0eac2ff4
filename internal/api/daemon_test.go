package api

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"dufp"
	"dufp/internal/control"
	"dufp/internal/workload"
)

// testConfig returns a daemon config on an isolated executor and
// registry.
func testConfig() Config {
	return Config{
		Session:  dufp.NewSession(),
		Executor: dufp.NewExecutor(),
		Registry: dufp.NewMetricsRegistry(),
	}
}

func mustApp(t *testing.T, name string) dufp.App {
	t.Helper()
	a, err := dufp.AppNamed(name)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// waitRun drives a subscription to the run's terminal state.
func waitRun(t *testing.T, d *Daemon, id string) RunStatus {
	t.Helper()
	ch, cancel, ok := d.SubscribeRun(id)
	if !ok {
		t.Fatalf("run %s unknown", id)
	}
	defer cancel()
	deadline := time.After(120 * time.Second)
	var last RunStatus
	for {
		select {
		case s, open := <-ch:
			if !open {
				return last
			}
			last = s
			if terminal(s.State) {
				return s
			}
		case <-deadline:
			t.Fatalf("run %s not terminal, last state %q", id, last.State)
		}
	}
}

func TestSubmitRunLifecycle(t *testing.T) {
	d, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	spec := dufp.RunSpec{App: mustApp(t, "EP"), Governor: dufp.DUFP(dufp.DefaultControlConfig(0.10))}
	status, err := d.SubmitRun(spec)
	if err != nil {
		t.Fatal(err)
	}
	if status.ID == "" || terminal(status.State) {
		t.Fatalf("fresh submission: %+v", status)
	}
	if want := d.session.RunID(spec); status.ID != want {
		t.Fatalf("run ID %q, want content address %q", status.ID, want)
	}

	final := waitRun(t, d, status.ID)
	if final.State != StateDone || final.Run == nil {
		t.Fatalf("final = %+v", final)
	}

	// Resubmission is idempotent and immediately terminal.
	again, err := d.SubmitRun(spec)
	if err != nil {
		t.Fatal(err)
	}
	if again.ID != status.ID || again.State != StateDone || again.Run == nil {
		t.Fatalf("resubmission = %+v", again)
	}
	if *again.Run != *final.Run {
		t.Fatalf("resubmitted run differs: %+v vs %+v", *again.Run, *final.Run)
	}

	// The result matches a direct in-process run bit for bit.
	direct, err := dufp.NewSession(dufp.WithExecutor(dufp.NewExecutor())).Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if direct.Run != *final.Run {
		t.Fatalf("daemon run differs from direct run:\n%+v\n%+v", *final.Run, direct.Run)
	}
}

func TestSubmitRunRejectsAnonymousGovernor(t *testing.T) {
	d, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	anon := dufp.GovernorOf(func(control.Actuators) (control.Instance, error) { return nil, nil })
	_, err = d.SubmitRun(dufp.RunSpec{App: mustApp(t, "EP"), Governor: anon})
	if !errors.Is(err, ErrNotSerializable) {
		t.Fatalf("err = %v, want ErrNotSerializable", err)
	}
}

// TestSubmitRunRejectsAppPastPhaseBound posts an inline app one phase
// past workload.MaxPhases: the daemon answers 400 and tracks nothing,
// and SubmitRun and an in-process Session.Run refuse the spec too.
func TestSubmitRunRejectsAppPastPhaseBound(t *testing.T) {
	d, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	ph := mustApp(t, "EP").Loops[0].Body[0]
	ph.Duration = time.Millisecond
	spec := dufp.RunSpec{
		App:      dufp.App{Name: "long", Loops: []dufp.Loop{{Body: []dufp.PhaseShape{ph}, Count: workload.MaxPhases + 1}}},
		Governor: dufp.Baseline(),
	}
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(d.FullHandler())
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/v1/runs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("POST /v1/runs of %d phases answered %d, want 400", workload.MaxPhases+1, resp.StatusCode)
	}
	if _, err := d.SubmitRun(spec); err == nil {
		t.Error("SubmitRun accepted the app")
	}
	if runs := d.Runs(); len(runs) != 0 {
		t.Errorf("daemon tracks %d runs, want none", len(runs))
	}
	if _, err := dufp.NewSession(dufp.WithExecutor(dufp.NewExecutor())).Run(context.Background(), spec); err == nil {
		t.Error("Session.Run accepted the app")
	}
}

func TestQueueBackpressure(t *testing.T) {
	cfg := testConfig()
	cfg.Session.ExactPhysics = true // slow the runs so the queue can fill
	cfg.Executor = dufp.NewExecutor(dufp.ExecWorkers(1))
	cfg.QueueDepth = 1
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if got := d.Workers(); got != 2 {
		t.Fatalf("dispatch width %d on a 1-worker executor, want 2", got)
	}

	app := mustApp(t, "EP")
	var full bool
	for i := 0; i < 8; i++ {
		_, err := d.SubmitRun(dufp.RunSpec{App: app, Governor: dufp.Baseline(), Idx: i})
		if errors.Is(err, ErrQueueFull) {
			full = true
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if !full {
		t.Fatal("8 instant submissions into a depth-1 queue never hit ErrQueueFull")
	}
}

func TestCampaignGridSummariesMatchDirect(t *testing.T) {
	d, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	spec := CampaignSpec{
		V:          dufp.WireVersion,
		Kind:       KindGrid,
		Apps:       []string{"EP"},
		Tolerances: []float64{0.10},
		Runs:       3,
	}
	status, err := d.SubmitCampaign(spec)
	if err != nil {
		t.Fatal(err)
	}
	// 3 cells (baseline, DUF, DUFP) × 3 runs.
	if status.Total != 9 {
		t.Fatalf("total = %d, want 9", status.Total)
	}

	// Idempotent: resubmission returns the same campaign.
	again, err := d.SubmitCampaign(spec)
	if err != nil {
		t.Fatal(err)
	}
	if again.ID != status.ID {
		t.Fatalf("resubmission got new campaign %q != %q", again.ID, status.ID)
	}

	ch, cancel, ok := d.SubscribeCampaign(status.ID)
	if !ok {
		t.Fatal("campaign unknown")
	}
	defer cancel()
	deadline := time.After(300 * time.Second)
	var last CampaignStatus
	for open := true; open; {
		select {
		case s, o := <-ch:
			if o {
				last = s
			}
			open = o
		case <-deadline:
			t.Fatalf("campaign stuck: %+v", last)
		}
	}
	if last.State != StateDone || last.Done != 9 || last.Failed != 0 {
		t.Fatalf("final = %+v", last)
	}
	if len(last.Summaries) != 3 {
		t.Fatalf("summaries = %+v", last.Summaries)
	}

	// Each group aggregate is bit-identical to the paper protocol run
	// directly in process.
	session := dufp.NewSession(dufp.WithExecutor(dufp.NewExecutor()))
	cfg := dufp.DefaultControlConfig(0.10)
	want := map[string]dufp.Governor{
		"EP/baseline": dufp.Baseline(),
		"EP/DUF/0.1":  dufp.DUF(cfg),
		"EP/DUFP/0.1": dufp.DUFP(cfg),
	}
	seen := map[string]bool{}
	for _, gs := range last.Summaries {
		gov, ok := want[gs.Group]
		if !ok {
			t.Errorf("unexpected group %q", gs.Group)
			continue
		}
		seen[gs.Group] = true
		direct, err := session.SummarizeCtx(context.Background(), mustApp(t, "EP"), gov, 3)
		if err != nil {
			t.Fatal(err)
		}
		if gs.Summary != direct {
			t.Errorf("group %s differs from direct summary:\n%+v\n%+v", gs.Group, gs.Summary, direct)
		}
	}
	for g := range want {
		if !seen[g] {
			t.Errorf("group %q missing from summaries", g)
		}
	}

	// The campaign detail view lists every member run as done.
	detail, ok := d.CampaignStatus(status.ID)
	if !ok || len(detail.RunIDs) != 9 {
		t.Fatalf("detail = %+v", detail)
	}
	for _, id := range detail.RunIDs {
		rs, ok := d.RunStatus(id)
		if !ok || rs.State != StateDone {
			t.Fatalf("member %s = %+v", id, rs)
		}
	}
}

// TestCampaignSubscriptionChurn subscribes to a running campaign and
// cancels from several goroutines while its runs complete. Every
// snapshot a completing run sends races these cancels and the final
// snapshot's close; a send made outside the daemon's lock can hit a
// closed channel (a panic) and shows under the race detector.
func TestCampaignSubscriptionChurn(t *testing.T) {
	d, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	status, err := d.SubmitCampaign(CampaignSpec{
		V:          dufp.WireVersion,
		Kind:       KindGrid,
		Apps:       []string{"EP"},
		Tolerances: []float64{0.10},
		Runs:       3,
	})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				ch, cancel, ok := d.SubscribeCampaign(status.ID)
				if !ok {
					t.Error("campaign unknown")
					return
				}
				s := <-ch // every subscription starts with a snapshot
				cancel()
				if terminal(s.State) {
					return
				}
			}
		}()
	}
	wg.Wait()
	if final, _ := d.CampaignStatus(status.ID); final.State != StateDone || final.Done != 9 {
		t.Fatalf("final = %+v", final)
	}
}

func TestCampaignSpecValidation(t *testing.T) {
	d, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	bad := []CampaignSpec{
		{V: 0, Kind: KindGrid},                                                 // missing version
		{V: dufp.WireVersion, Kind: "zigzag"},                                  // unknown kind
		{V: dufp.WireVersion, Kind: KindGrid, Levels: []string{"noise"}},       // levels on a grid
		{V: dufp.WireVersion, Kind: KindGrid, Apps: []string{"NOPE"}},          // unknown app
		{V: dufp.WireVersion, Kind: KindGrid, Runs: -1},                        // negative runs
		{V: dufp.WireVersion, Kind: KindGrid, Tolerances: []float64{2}},        // tolerance out of range
		{V: dufp.WireVersion, Kind: KindRobustness, Levels: []string{"novel"}}, // unknown level
	}
	for i, spec := range bad {
		if _, err := d.SubmitCampaign(spec); err == nil {
			t.Errorf("bad spec %d accepted: %+v", i, spec)
		}
	}
}

func TestDrainRejectsNewWork(t *testing.T) {
	d, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	spec := dufp.RunSpec{App: mustApp(t, "EP"), Governor: dufp.Baseline()}
	if _, err := d.SubmitRun(spec); err != nil {
		t.Fatal(err)
	}
	if err := d.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	st, ok := d.RunStatus(d.session.RunID(spec))
	if !ok || st.State != StateDone {
		t.Fatalf("after drain: %+v", st)
	}
	if _, err := d.SubmitRun(dufp.RunSpec{App: mustApp(t, "EP"), Governor: dufp.Baseline(), Idx: 1}); !errors.Is(err, ErrDraining) {
		t.Fatalf("submission while draining: %v", err)
	}
	if _, err := d.SubmitCampaign(CampaignSpec{V: dufp.WireVersion, Kind: KindGrid}); !errors.Is(err, ErrDraining) {
		t.Fatalf("campaign while draining: %v", err)
	}
}

func TestCampaignIDDeterministic(t *testing.T) {
	a := CampaignSpec{V: dufp.WireVersion, Kind: KindGrid, Apps: []string{"EP", "CG"}}
	b := CampaignSpec{V: dufp.WireVersion, Kind: KindGrid, Apps: []string{"CG", "EP"}}
	ida, err := CampaignID(a)
	if err != nil {
		t.Fatal(err)
	}
	idb, err := CampaignID(b)
	if err != nil {
		t.Fatal(err)
	}
	if ida != idb {
		t.Fatalf("app order changed campaign ID: %q vs %q", ida, idb)
	}
	idc, err := CampaignID(CampaignSpec{V: dufp.WireVersion, Kind: KindGrid, Apps: []string{"CG"}})
	if err != nil {
		t.Fatal(err)
	}
	if idc == ida {
		t.Fatal("different specs share a campaign ID")
	}
	for _, id := range []string{ida, idc} {
		if len(id) != 16 || id[0] != 'c' {
			t.Fatalf("campaign ID %q not in c+15-hex form", id)
		}
	}
}
