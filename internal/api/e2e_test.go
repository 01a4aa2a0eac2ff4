package api_test

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"testing"
	"time"

	"dufp"
	"dufp/internal/api"
	"dufp/internal/api/client"
)

// testDaemon is one dufpd instance on a random loopback port: the real
// daemon behind the real HTTP surface, owning its executor.
type testDaemon struct {
	daemon *api.Daemon
	exe    *dufp.Executor
	srv    *http.Server
	URL    string
}

// startDaemon boots a daemon over dataDir; session seeds and config
// match dufpd's defaults so run IDs are stable across instances.
func startDaemon(t *testing.T, dataDir string) *testDaemon {
	t.Helper()
	exe := dufp.NewExecutor(dufp.ExecDiskCache(dataDir + "/cache"))
	d, err := api.New(api.Config{
		Session:  dufp.NewSession(),
		Executor: exe,
		DataDir:  dataDir,
		Registry: dufp.NewMetricsRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: d.FullHandler()}
	go srv.Serve(ln)
	return &testDaemon{daemon: d, exe: exe, srv: srv, URL: "http://" + ln.Addr().String()}
}

// kill hard-stops the daemon mid-flight: in-flight runs are aborted,
// then the executor flushes its disk cache — the same state a crashed
// process leaves behind, plus the fsync a dying dufpd performs.
func (td *testDaemon) kill(t *testing.T) {
	t.Helper()
	td.srv.Close()
	if err := td.daemon.Close(); err != nil {
		t.Fatal(err)
	}
	if err := td.exe.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestDaemonEndToEnd drives the full Run API over HTTP: submit a small
// Fig-3 campaign, follow it by polling and SSE, kill the daemon
// mid-campaign, restart it over the same data directory, and require
// the resumed campaign's results to be bit-identical to a cold
// in-process run of the same protocol.
func TestDaemonEndToEnd(t *testing.T) {
	dataDir := t.TempDir()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()

	spec := api.CampaignSpec{
		V:          dufp.WireVersion,
		Kind:       api.KindGrid,
		Apps:       []string{"EP"},
		Tolerances: []float64{0.10},
		Runs:       3,
	}

	// Phase 1: boot, submit, watch until the campaign is mid-flight.
	td := startDaemon(t, dataDir)
	c := client.New(td.URL)
	if h, err := c.Healthz(ctx); err != nil || h.Status != "ok" {
		t.Fatalf("healthz = %+v, %v", h, err)
	}
	accepted, err := c.SubmitCampaign(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if accepted.State == api.StateDone {
		t.Fatalf("fresh campaign already done: %+v", accepted)
	}

	// Poll until at least one member run has finished, then kill the
	// daemon with the campaign still incomplete (if it was faster than
	// the poll, the restart path degenerates to pure journal replay —
	// still worth asserting, but flag it).
	var mid api.CampaignStatus
	for {
		mid, err = c.Campaign(ctx, accepted.ID)
		if err != nil {
			t.Fatal(err)
		}
		if mid.Done >= 1 || mid.State != api.StateRunning {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if mid.Failed > 0 {
		t.Fatalf("campaign failing before kill: %+v", mid)
	}
	interrupted := mid.State == api.StateRunning
	td.kill(t)
	if !interrupted {
		t.Log("campaign completed before the kill; restart covers journal replay only")
	}

	// Phase 2: a new daemon over the same data directory resumes the
	// journaled campaign; completed member runs come from the disk
	// cache, the rest are computed.
	td2 := startDaemon(t, dataDir)
	defer td2.kill(t)
	c2 := client.New(td2.URL)

	// The journal replay resubmitted the campaign at boot.
	replayed, err := c2.Campaign(ctx, accepted.ID)
	if err != nil {
		t.Fatalf("campaign lost across restart: %v", err)
	}
	if replayed.Total != accepted.Total {
		t.Fatalf("replayed total %d != %d", replayed.Total, accepted.Total)
	}

	// Follow the resumed campaign to completion over SSE.
	var progress int
	final, err := c2.WaitCampaign(ctx, accepted.ID, func(api.CampaignStatus) { progress++ })
	if err != nil {
		t.Fatal(err)
	}
	if final.State != api.StateDone || final.Done != 9 || final.Failed != 0 {
		t.Fatalf("final = %+v", final)
	}
	if progress < 1 {
		t.Fatal("SSE stream delivered no progress snapshots")
	}
	if len(final.RunIDs) != 9 {
		t.Fatalf("detail run IDs = %d", len(final.RunIDs))
	}

	// Phase 3: every member run — polled individually over HTTP — and
	// every group summary must be bit-identical to a cold in-process
	// run with no daemon and no disk cache involved.
	cold := dufp.NewSession(dufp.WithExecutor(dufp.NewExecutor()))
	app, err := dufp.AppNamed("EP")
	if err != nil {
		t.Fatal(err)
	}
	cfg := dufp.DefaultControlConfig(0.10)
	govs := map[string]dufp.Governor{
		"EP/baseline": dufp.Baseline(),
		"EP/DUF/0.1":  dufp.DUF(cfg),
		"EP/DUFP/0.1": dufp.DUFP(cfg),
	}
	if len(final.Summaries) != len(govs) {
		t.Fatalf("summaries = %+v", final.Summaries)
	}
	for _, gs := range final.Summaries {
		gov, ok := govs[gs.Group]
		if !ok {
			t.Fatalf("unexpected group %q", gs.Group)
		}
		direct, err := cold.SummarizeCtx(ctx, app, gov, 3)
		if err != nil {
			t.Fatal(err)
		}
		if gs.Summary != direct {
			t.Errorf("group %s not bit-identical to cold run:\n%+v\n%+v", gs.Group, gs.Summary, direct)
		}
	}
	for name, gov := range govs {
		for idx := 0; idx < 3; idx++ {
			rs, err := c2.Run(ctx, cold.RunID(dufp.RunSpec{App: app, Governor: gov, Idx: idx}))
			if err != nil {
				t.Fatalf("member %s[%d]: %v", name, idx, err)
			}
			if rs.State != api.StateDone || rs.Run == nil {
				t.Fatalf("member %s[%d] = %+v", name, idx, rs)
			}
			direct, err := cold.Run(ctx, dufp.RunSpec{App: app, Governor: gov, Idx: idx})
			if err != nil {
				t.Fatal(err)
			}
			if *rs.Run != direct.Run {
				t.Errorf("member %s[%d] not bit-identical to cold run:\n%+v\n%+v",
					name, idx, *rs.Run, direct.Run)
			}
		}
	}
}

// TestDaemonSingleRunOverHTTP submits one run through the wire codec,
// streams it to completion, and checks 404 and 400 behaviour.
func TestDaemonSingleRunOverHTTP(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	td := startDaemon(t, t.TempDir())
	defer td.kill(t)
	c := client.New(td.URL)

	app, err := dufp.AppNamed("EP")
	if err != nil {
		t.Fatal(err)
	}
	spec := dufp.RunSpec{App: app, Governor: dufp.DUFP(dufp.DefaultControlConfig(0.10))}
	st, err := c.SubmitRun(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	final, err := c.WaitRun(ctx, st.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != api.StateDone || final.Run == nil {
		t.Fatalf("final = %+v", final)
	}

	// The daemon's run is bit-identical to a local one.
	direct, err := dufp.NewSession(dufp.WithExecutor(dufp.NewExecutor())).Run(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if *final.Run != direct.Run {
		t.Fatalf("daemon vs local:\n%+v\n%+v", *final.Run, direct.Run)
	}

	// Unknown IDs are 404; malformed specs are 400.
	if _, err := c.Run(ctx, "0123456789abcdef"); err == nil {
		t.Fatal("unknown run ID did not error")
	} else if apiErr, ok := err.(*client.APIError); !ok || apiErr.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown run: %v", err)
	}
	resp, err := http.Post(td.URL+"/v1/runs", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty body: HTTP %d", resp.StatusCode)
	}

	// The shared listener also serves the observability surface.
	for _, path := range []string{"/metrics", "/metrics.json", "/v1/healthz"} {
		resp, err := http.Get(td.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s: HTTP %d", path, resp.StatusCode)
		}
	}
}

// TestClientSamplesOverHTTP drives the streaming sample surface through
// the typed client: paged reads, the NDJSON stream and the embedded
// wire v1.1 result must all expose the same retained series.
func TestClientSamplesOverHTTP(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	td := startDaemon(t, t.TempDir())
	defer td.kill(t)
	c := client.New(td.URL)

	app, err := dufp.AppNamed("EP")
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.SubmitRun(ctx, dufp.RunSpec{App: app, Governor: dufp.Baseline()})
	if err != nil {
		t.Fatal(err)
	}
	final, err := c.WaitRun(ctx, st.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != api.StateDone {
		t.Fatalf("final = %+v", final)
	}

	// Paged reads: collect the socket-0 series 16 points at a time.
	var paged []api.SamplePoint
	for off := 0; off >= 0; {
		page, err := c.Samples(ctx, st.ID, 0, off, 16)
		if err != nil {
			t.Fatal(err)
		}
		paged = append(paged, page.Points...)
		off = page.Next
	}
	if len(paged) == 0 {
		t.Fatal("no samples retained")
	}

	// A page goes out whole, with its length declared, not chunked.
	resp, err := http.Get(fmt.Sprintf("%s/v1/runs/%s/samples?socket=0&offset=0&limit=16", td.URL, st.ID))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.ContentLength != int64(len(body)) || len(resp.TransferEncoding) != 0 {
		t.Errorf("page of %d bytes: Content-Length %d, Transfer-Encoding %v", len(body), resp.ContentLength, resp.TransferEncoding)
	}

	// The NDJSON stream yields the identical sequence without paging.
	var streamed []api.SamplePoint
	if err := c.StreamSamples(ctx, st.ID, 0, func(p api.SamplePoint) error {
		streamed = append(streamed, p)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(streamed) != len(paged) {
		t.Fatalf("streamed %d points, paged %d", len(streamed), len(paged))
	}
	for i := range streamed {
		if streamed[i] != paged[i] {
			t.Fatalf("point %d differs between stream and pages", i)
		}
	}

	// The embedded result agrees: same series length, exact summary.
	rich, err := c.RunWithTrace(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if rich.Result == nil || rich.Result.Trace == nil {
		t.Fatalf("include=trace result = %+v", rich.Result)
	}
	if got := rich.Result.Trace.Len(0); got != len(paged) {
		t.Fatalf("embedded trace has %d points, samples endpoint %d", got, len(paged))
	}
	if rich.Result.TraceSummary == nil || rich.Result.TraceSummary.Sockets() == 0 {
		t.Fatal("embedded result has no trace summary")
	}
}
